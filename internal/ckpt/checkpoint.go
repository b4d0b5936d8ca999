package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/keyenc"
)

// TableSpec tells the checkpointer how to partition one table's snapshot.
type TableSpec struct {
	Table *core.Table
	// Partitions is the number of key-range partition files (default 4).
	Partitions int
	// Lo, Hi bound the expected primary-key range (inclusive). Leaving both
	// zero derives Hi from the table's primary key layout. Keys outside the
	// bound still land in the nearest partition — the hint only balances
	// file sizes, it never loses rows.
	Lo, Hi uint64
}

// captureAttempts bounds capture retries: the single-version engine's
// capture acquires locks and can time out against concurrent writers.
const captureAttempts = 8

// Options tunes Checkpointer.Run.
type Options struct {
	// KeepLog disables log truncation after the checkpoint publishes. Tests
	// use it to compare checkpoint+tail recovery against full-log replay.
	KeepLog bool
}

// Stats summarizes one checkpoint.
type Stats struct {
	Seq             uint64
	StableTS        uint64
	Rows            uint64
	Bytes           uint64
	Partitions      int
	ReclaimedBytes  int64
	CaptureAttempts int
	Elapsed         time.Duration
}

// Checkpointer streams checkpoints of a database into a Store. One Run:
//
//  1. capture a consistent snapshot at stable timestamp S, streaming rows
//     into partition files by primary-key range (keyenc.PartitionOf);
//  2. flush the log and rotate the live segment, so every record with end
//     timestamp <= S is in a sealed segment;
//  3. fsync the partition files and their directory, then publish manifest
//     and CURRENT (each an atomic temp-file rename followed by a sync of
//     its directory);
//  4. truncate the log below S (CompactBelow).
//
// A crash anywhere in that sequence is safe: before the CURRENT flip,
// recovery sees the previous checkpoint (or none) plus the full log; after
// it, tail records at or below S that truncation had not yet dropped are
// filtered out by recovery's timestamp check.
type Checkpointer struct {
	db    *core.Database
	store *Store
	specs []TableSpec
	opts  Options

	stop chan struct{}
	done chan struct{}

	hmu    sync.Mutex
	health Health
}

// Health is the background checkpointer's status, surfaced instead of dying
// silently: transient capture failures are retried with bounded backoff and
// counted here; a latched sink failure (the store can no longer promise
// durability) is Fatal and stops further attempts.
type Health struct {
	// Runs counts completed Run attempts by the background loop.
	Runs uint64
	// Failures counts attempts that returned an error.
	Failures uint64
	// Consecutive counts failures since the last success; it drives the
	// backoff and resets to zero on success.
	Consecutive int
	// LastErr is the most recent attempt's error, nil after a success.
	LastErr error
	// Fatal, once non-nil, means checkpointing has permanently stopped: it
	// is the store's latched error (Store.Err), a write/fsync failure or an
	// injected crash.
	Fatal error
	// LastStableTS is the stable timestamp of the last published checkpoint.
	LastStableTS uint64
	// LastSuccess is when that checkpoint published.
	LastSuccess time.Time
}

// Health returns a snapshot of the background loop's status.
func (c *Checkpointer) Health() Health {
	c.hmu.Lock()
	defer c.hmu.Unlock()
	return c.health
}

// record folds one background Run outcome into the health snapshot.
func (c *Checkpointer) record(stats Stats, err error) {
	c.hmu.Lock()
	defer c.hmu.Unlock()
	c.health.Runs++
	if err == nil {
		c.health.Consecutive = 0
		c.health.LastErr = nil
		c.health.LastStableTS = stats.StableTS
		c.health.LastSuccess = time.Now()
		return
	}
	c.health.Failures++
	c.health.Consecutive++
	c.health.LastErr = err
	// A latched store failure cannot heal: latch it as fatal so the loop
	// stops burning capture attempts against a sink that will never accept
	// them.
	if serr := c.store.Err(); serr != nil {
		c.health.Fatal = serr
	}
}

// New returns a Checkpointer over the given tables.
func New(db *core.Database, store *Store, specs []TableSpec, opts Options) *Checkpointer {
	return &Checkpointer{db: db, store: store, specs: specs, opts: opts}
}

// Run takes one checkpoint. Once the store has latched an error (a crash
// injected anywhere along the way included), every step returns it.
func (c *Checkpointer) Run() (Stats, error) {
	start := time.Now()
	var stats Stats
	if err := c.store.Err(); err != nil {
		return stats, err
	}
	seq := c.store.nextCkptSeq()
	dirName := fmt.Sprintf("ckpt-%06d", seq)
	dir := filepath.Join(c.store.Dir(), dirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, err
	}
	if err := c.store.syncDirLatched(c.store.Dir()); err != nil {
		return stats, err
	}

	// Precompute each table's partition ranges and a routing entry.
	type route struct {
		spec    TableSpec
		parts   []keyenc.Range
		writers []*partWriter
	}
	routes := make(map[*core.Table]*route, len(c.specs))
	tables := make([]*core.Table, 0, len(c.specs))
	for _, spec := range c.specs {
		n := spec.Partitions
		if n <= 0 {
			n = 4
		}
		lo, hi := spec.Lo, spec.Hi
		if lo == 0 && hi == 0 {
			hi = ^uint64(0)
			if l := spec.Table.Layout(0); l != nil {
				hi = l.KeyspaceMax()
			}
		}
		parts := keyenc.Ranges(lo, hi, n)
		if parts == nil {
			return stats, fmt.Errorf("ckpt: table %s: invalid key range [%d,%d]", spec.Table.Name(), lo, hi)
		}
		routes[spec.Table] = &route{spec: spec, parts: parts}
		tables = append(tables, spec.Table)
	}

	// Capture with retry: each attempt recreates the partition files
	// (os.Create truncates), so a failed attempt leaves no stale rows.
	var stableTS uint64
	for attempt := 0; ; attempt++ {
		stats.CaptureAttempts = attempt + 1
		openErr := func() error {
			for _, rt := range routes {
				rt.writers = make([]*partWriter, len(rt.parts))
				for i := range rt.parts {
					path := filepath.Join(dir, partFileName(rt.spec.Table.Name(), i))
					w, err := newPartWriter(c.store, path)
					if err != nil {
						return err
					}
					rt.writers[i] = w
				}
			}
			return nil
		}()
		if openErr != nil {
			return stats, openErr
		}
		s, err := c.db.Capture(tables, func(t *core.Table, key uint64, payload []byte) error {
			rt := routes[t]
			return rt.writers[keyenc.PartitionOf(rt.parts, key)].add(key, payload)
		})
		if err == nil {
			stableTS = s
			break
		}
		for _, rt := range routes {
			for _, w := range rt.writers {
				w.abandon()
			}
		}
		c.store.latchCrash(err)
		if attempt+1 >= captureAttempts || c.store.Err() != nil {
			return stats, fmt.Errorf("ckpt: capture failed after %d attempts: %w", attempt+1, err)
		}
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
	}
	stats.StableTS = stableTS
	stats.Seq = seq

	// Make every record at or below S durable in a sealed segment before the
	// checkpoint that supersedes them can publish.
	if w := c.db.WAL(); w != nil {
		if err := w.Flush(); err != nil {
			return stats, err
		}
	}
	if err := c.store.Rotate(); err != nil {
		return stats, err
	}

	// Finalize partitions and assemble the manifest in spec order.
	man := &Manifest{Seq: seq, StableTS: stableTS}
	for _, spec := range c.specs {
		rt := routes[spec.Table]
		tm := TableManifest{Name: spec.Table.Name()}
		for i, w := range rt.writers {
			rows, bytes, crc, err := w.finish()
			if err != nil {
				return stats, c.store.latchCrash(err)
			}
			tm.Parts = append(tm.Parts, PartInfo{
				File:  partFileName(spec.Table.Name(), i),
				Lo:    rt.parts[i].Lo,
				Hi:    rt.parts[i].Hi,
				Rows:  rows,
				Bytes: bytes,
				CRC:   crc,
			})
			stats.Rows += rows
			stats.Bytes += bytes
			stats.Partitions++
		}
		man.Tables = append(man.Tables, tm)
	}
	// The partition files' entries are durable before the manifest names
	// them.
	if err := c.store.syncDirLatched(dir); err != nil {
		return stats, err
	}

	if err := c.store.publishCheckpoint(dirName, man); err != nil {
		return stats, err
	}
	if !c.opts.KeepLog {
		reclaimed, err := c.store.CompactBelow(stableTS)
		if err != nil {
			return stats, err
		}
		stats.ReclaimedBytes = reclaimed
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// Start launches a background loop checkpointing every interval until Stop.
// Transient failures (capture lock timeouts, partition I/O that may clear)
// are retried with exponential backoff bounded at 16× the interval; a fatal
// condition (latched sink failure or injected crash) stops
// further attempts and is reported by Health — the loop never dies silently
// and never hammers a dead disk.
func (c *Checkpointer) Start(interval time.Duration) {
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		maxWait := 16 * interval
		wait := interval
		timer := time.NewTimer(wait)
		defer timer.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-timer.C:
			}
			if c.Health().Fatal != nil {
				// Nothing left to retry; stay alive (Health keeps serving)
				// until Stop.
				timer.Reset(maxWait)
				continue
			}
			stats, err := c.Run()
			c.record(stats, err)
			if err == nil {
				wait = interval
			} else {
				wait = min(wait*2, maxWait)
			}
			timer.Reset(wait)
		}
	}()
}

// Stop halts the background loop started by Start and waits for it.
func (c *Checkpointer) Stop() {
	if c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop = nil
}

func partFileName(table string, i int) string {
	return fmt.Sprintf("%s.p%02d.ckpt", table, i)
}
