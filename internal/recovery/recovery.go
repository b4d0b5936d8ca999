// Package recovery rebuilds database state from a checkpoint plus the redo
// log tail, or from the log alone.
//
// The engine's commit protocol (Section 2.4 / 3.2) writes each committing
// transaction's new versions — and the keys of its deleted versions — to a
// redo record carrying the transaction's end timestamp. Because commit order
// is determined by end timestamps embedded in the records, recovery is
// order-insensitive at the stream level: records are merged by end timestamp
// and replayed; multiple log streams can simply be concatenated.
//
// With a checkpoint, recovery restores the manifest's partition files
// concurrently (each partition covers a disjoint primary-key range, so
// restores cannot conflict on rows), then replays only records with end
// timestamp above the checkpoint's stable timestamp. Records at or below it
// are filtered out — that is what makes checkpointing and log truncation
// independently crash-safe: truncation that did not happen yet only leaves
// redundant records the filter drops.
//
// Replay applies each record keyed by the records' primary-index key: an
// insert creates the row, an update replaces it, a delete removes it.
// Secondary and non-unique ordered indexes are rebuilt as a side effect of
// going through ordinary transactions. The timestamp oracle and the
// single-version sequence counters are advanced past the largest recovered
// timestamp so new transactions order after everything recovered.
package recovery

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/wal"
)

// TableSet maps table names (as they appear in log records and checkpoint
// manifests) to the rebuilt database's table handles.
type TableSet map[string]*core.Table

// Stats summarizes a recovery pass.
type Stats struct {
	Records  int // log records applied
	Inserts  int
	Updates  int
	Deletes  int
	MaxEndTS uint64

	// Log tail accounting.
	SegmentsRead   int   // log segments scanned
	TailRecords    int   // records above the checkpoint's stable timestamp
	SkippedRecords int   // records dropped by the stable-timestamp filter
	TruncatedBytes int64 // torn-tail bytes discarded by the tolerant reader

	// Checkpoint accounting (zero when recovering from the log alone).
	CheckpointSeq      uint64
	CheckpointTS       uint64
	RowsRestored       int
	PartitionsRestored int

	Elapsed time.Duration
}

// Options tunes Recover.
type Options struct {
	// Workers bounds the partition-restore pool (default 4).
	Workers int
}

// restoreBatchRows is the number of checkpoint rows inserted per
// transaction during restore.
const restoreBatchRows = 256

// Replay reads the encoded log from r and applies it to db. Tables must
// already have been created (schema is not logged, as in the paper's
// prototype). Each table's primary index (ordinal 0) must be a unique key —
// the same property the paper's delete logging relies on ("deletes are
// logged by writing a unique key"). A torn final record is tolerated and
// reported in Stats.TruncatedBytes.
func Replay(db *core.Database, tables TableSet, r io.Reader) (Stats, error) {
	var st Stats
	d := wal.NewReader(r)
	var recs []*wal.Record
	for {
		rec, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		recs = append(recs, rec)
	}
	st.TruncatedBytes = d.Truncated()
	rst, err := ReplayRecords(db, tables, recs)
	rst.TruncatedBytes = st.TruncatedBytes
	return rst, err
}

// ReplayRecords applies already-decoded records (e.g. merged from several
// streams) in end-timestamp order.
func ReplayRecords(db *core.Database, tables TableSet, recs []*wal.Record) (Stats, error) {
	var st Stats
	if err := applyInOrder(db, tables, append([]*wal.Record(nil), recs...), &st); err != nil {
		return st, err
	}
	advanceSequences(db, st.MaxEndTS)
	return st, nil
}

// applyInOrder sorts recs by end timestamp, in place, and applies them.
// Group commit interleaves end timestamps within a stream, so no input is
// assumed sorted.
func applyInOrder(db *core.Database, tables TableSet, recs []*wal.Record, st *Stats) error {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].EndTS < recs[j].EndTS })
	for _, rec := range recs {
		if err := applyRecord(db, tables, rec, st); err != nil {
			return err
		}
	}
	return nil
}

// applyRecord replays one committed transaction's redo record inside one
// recovery transaction, keeping replay atomic per original transaction.
func applyRecord(db *core.Database, tables TableSet, rec *wal.Record, st *Stats) error {
	if rec.EndTS > st.MaxEndTS {
		st.MaxEndTS = rec.EndTS
	}
	tx := db.Begin(core.WithIsolation(core.ReadCommitted))
	for _, op := range rec.Ops {
		tbl, ok := tables[op.Table]
		if !ok {
			_ = tx.Abort()
			return fmt.Errorf("recovery: record for unknown table %q", op.Table)
		}
		switch op.Op {
		case wal.OpInsert:
			if err := tx.Insert(tbl, op.Payload); err != nil {
				_ = tx.Abort()
				return fmt.Errorf("recovery: insert %s[%d]: %w", op.Table, op.Key, err)
			}
			st.Inserts++
		case wal.OpUpdate:
			row, found, err := tx.Lookup(tbl, 0, op.Key, nil)
			if err != nil {
				_ = tx.Abort()
				return fmt.Errorf("recovery: lookup %s[%d]: %w", op.Table, op.Key, err)
			}
			if found {
				err = tx.Update(tbl, row, op.Payload)
			} else {
				// The row may predate the log's beginning — the checkpoint
				// holds its base image, or (log-only recovery) there is no
				// base at all: materialize it.
				err = tx.Insert(tbl, op.Payload)
			}
			if err != nil {
				_ = tx.Abort()
				return fmt.Errorf("recovery: update %s[%d]: %w", op.Table, op.Key, err)
			}
			st.Updates++
		case wal.OpDelete:
			if _, err := tx.DeleteWhere(tbl, 0, op.Key, nil); err != nil {
				_ = tx.Abort()
				return fmt.Errorf("recovery: delete %s[%d]: %w", op.Table, op.Key, err)
			}
			st.Deletes++
		default:
			_ = tx.Abort()
			return fmt.Errorf("recovery: unknown op %d", op.Op)
		}
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("recovery: commit of txn@%d: %w", rec.EndTS, err)
	}
	st.Records++
	return nil
}

// advanceSequences moves every engine clock past maxEndTS so new work orders
// strictly after everything recovered.
func advanceSequences(db *core.Database, maxEndTS uint64) {
	if maxEndTS == 0 {
		return
	}
	if db.MV() != nil {
		db.MV().Oracle().AdvanceTo(maxEndTS + 1)
	}
	if db.SV() != nil {
		db.SV().AdvanceSequences(maxEndTS)
	}
}

// Recover rebuilds db from a durability store: the latest published
// checkpoint's partitions restored concurrently, then the log tail replayed
// in end-timestamp order. With no published checkpoint it degenerates to a
// full-log replay over every segment. Tables must exist and be empty.
func Recover(db *core.Database, tables TableSet, store *ckpt.Store, opts Options) (Stats, error) {
	start := time.Now()
	var st Stats
	if opts.Workers <= 0 {
		opts.Workers = 4
	}

	man, dir, err := store.LatestManifest()
	if err != nil {
		return st, err
	}
	if man != nil {
		st.CheckpointSeq = man.Seq
		st.CheckpointTS = man.StableTS
		if err := restoreCheckpoint(db, tables, man, dir, opts, &st); err != nil {
			return st, err
		}
	}

	tail, err := readTail(store, st.CheckpointTS, &st)
	if err != nil {
		return st, err
	}
	if err := applyInOrder(db, tables, tail, &st); err != nil {
		return st, err
	}
	advanceSequences(db, max(st.MaxEndTS, st.CheckpointTS))
	st.Elapsed = time.Since(start)
	return st, nil
}

// restoreCheckpoint loads every manifest partition through a bounded worker
// pool. Partitions cover disjoint primary-key ranges, so two workers never
// touch the same row; on the single-version engine distinct keys can still
// hash-collide on a bucket lock, so a failed batch (lock timeout) is retried
// — its transaction aborted cleanly, the rows not yet applied.
func restoreCheckpoint(db *core.Database, tables TableSet, man *ckpt.Manifest, dir string, opts Options, st *Stats) error {
	type job struct {
		tbl  *core.Table
		path string
		info ckpt.PartInfo
	}
	var jobs []job
	for _, tm := range man.Tables {
		tbl, ok := tables[tm.Name]
		if !ok {
			return fmt.Errorf("recovery: checkpoint has unknown table %q", tm.Name)
		}
		for _, p := range tm.Parts {
			if p.Rows == 0 {
				continue
			}
			jobs = append(jobs, job{tbl: tbl, path: dir + string(os.PathSeparator) + p.File, info: p})
		}
	}

	workers := opts.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers == 0 {
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		rows     int
		parts    int
	)
	ch := make(chan job)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				n, err := restorePartition(db, j.tbl, j.path, j.info)
				if err != nil {
					fail(err)
					continue
				}
				mu.Lock()
				rows += n
				parts++
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		ch <- j
	}
	close(ch)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	st.RowsRestored = rows
	st.PartitionsRestored = parts
	return nil
}

// restorePartition streams one partition file into the table in batched
// insert transactions.
func restorePartition(db *core.Database, tbl *core.Table, path string, info ckpt.PartInfo) (int, error) {
	var (
		batch [][]byte
		total int
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		const retries = 16
		var err error
		for attempt := 0; attempt < retries; attempt++ {
			err = func() error {
				tx := db.Begin(core.WithIsolation(core.ReadCommitted))
				for _, payload := range batch {
					if err := tx.Insert(tbl, payload); err != nil {
						_ = tx.Abort()
						return err
					}
				}
				return tx.Commit()
			}()
			if err == nil {
				total += len(batch)
				batch = batch[:0]
				return nil
			}
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
		}
		return fmt.Errorf("recovery: restoring %s into %s: %w", path, tbl.Name(), err)
	}
	err := ckpt.ReadPartition(path, info, func(key uint64, payload []byte) error {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		batch = append(batch, cp)
		if len(batch) >= restoreBatchRows {
			return flush()
		}
		return nil
	})
	if err != nil {
		return total, err
	}
	if err := flush(); err != nil {
		return total, err
	}
	return total, nil
}

// readTail scans every log segment with the torn-tail-tolerant reader,
// keeping only records above the checkpoint's stable timestamp, in file
// order; the stable-timestamp filter during the scan is what bounds the
// tail to the post-checkpoint window.
func readTail(store *ckpt.Store, ckptTS uint64, st *Stats) ([]*wal.Record, error) {
	paths, err := store.SegmentPaths()
	if err != nil {
		return nil, err
	}
	var tail []*wal.Record
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		d := wal.NewReader(f)
		for {
			rec, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("recovery: reading %s: %w", path, err)
			}
			if rec.EndTS <= ckptTS {
				st.SkippedRecords++
				continue
			}
			tail = append(tail, rec)
		}
		st.TruncatedBytes += d.Truncated()
		st.SegmentsRead++
		f.Close()
	}
	st.TailRecords = len(tail)
	return tail, nil
}
