package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
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

// Options tunes Checkpointer.Run.
type Options struct {
	// KeepLog disables log truncation after the checkpoint publishes (the
	// superseded checkpoint directories are still removed). Tests
	// use it to compare checkpoint+tail recovery against full-log replay.
	KeepLog bool
}

// Stats summarizes one checkpoint.
type Stats struct {
	Seq            uint64
	StableTS       uint64
	Rows           uint64
	Bytes          uint64
	Partitions     int
	ReclaimedBytes int64
	Elapsed        time.Duration
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
//  4. truncate the log below S and remove every other checkpoint
//     directory, then sync the store's directory once (Store.retire).
//
// A crash anywhere in that sequence is safe: before the CURRENT flip,
// recovery sees the previous checkpoint (or none) plus the full log; after
// it, tail records at or below S that truncation had not yet dropped are
// filtered out by recovery's timestamp check, and a superseded directory
// that survived is never read. Runs on one store must not overlap: each
// removes the directories of the others.
type Checkpointer struct {
	db    *core.Database
	store *Store
	specs []TableSpec
	opts  Options
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
	dirName := fmt.Sprintf(ckptName, seq)
	dir := filepath.Join(c.store.Dir(), dirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, err
	}
	if err := c.store.syncDirLatched(c.store.Dir()); err != nil {
		return stats, err
	}

	// Open each table's partition files, one per key range.
	type route struct {
		parts   []keyenc.Range
		writers []*partWriter
	}
	routes := make(map[*core.Table]*route, len(c.specs))
	tables := make([]*core.Table, 0, len(c.specs))
	abandon := func() {
		for _, rt := range routes {
			for _, w := range rt.writers {
				w.abandon()
			}
		}
	}
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
			abandon()
			return stats, fmt.Errorf("ckpt: table %s: invalid key range [%d,%d]", spec.Table.Name(), lo, hi)
		}
		rt := &route{parts: parts}
		routes[spec.Table] = rt
		tables = append(tables, spec.Table)
		for i := range parts {
			w, err := newPartWriter(c.store, filepath.Join(dir, partFileName(spec.Table.Name(), i)))
			if err != nil {
				abandon()
				return stats, err
			}
			rt.writers = append(rt.writers, w)
		}
	}

	// One capture streams every row into its partition. A 1V capture waits
	// out the writers it meets (sv.Engine.Capture), so it fails only when a
	// partition write does.
	stableTS, err := c.db.Capture(tables, func(t *core.Table, key uint64, payload []byte) error {
		rt := routes[t]
		return rt.writers[keyenc.PartitionOf(rt.parts, key)].add(key, payload)
	})
	if err != nil {
		abandon()
		return stats, c.store.latchCrash(err)
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
	reclaimed, err := c.store.retire(dirName, stableTS, !c.opts.KeepLog)
	stats.ReclaimedBytes = reclaimed
	if err != nil {
		return stats, err
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}

func partFileName(table string, i int) string {
	return fmt.Sprintf("%s.p%02d.ckpt", table, i)
}
