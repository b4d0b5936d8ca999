package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/mv"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/sv"
	"repro/internal/ts"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// A layer probe times one public operation of one package on a single
// goroutine: a fixed number of operations per batch, the best of
// probeBatches batches. Probes isolate a layer from the transaction around
// it; which end-to-end metric each should move is in README.md.
const (
	probeBatches = 5
	probeRows    = 1 << 17 // table and index size of the storage, ckpt and recovery probes
)

// probes lists the probe metrics in print order; runProbes fills them.
var probes = []metricSpec{
	{Name: "ts.next_ns", Unit: "ns", Better: "lower"},
	{Name: "txn.register_remove_ns", Unit: "ns", Better: "lower"},
	{Name: "gc.pin_acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.hash_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.skiplist_get_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.skiplist_seek_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.cursor_next_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.version_get_put_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.arena_get_put_ns", Unit: "ns", Better: "lower"},
	{Name: "keyenc.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.encode_b_per_rec", Unit: "B", Better: "lower"},
	{Name: "wal.append_async_ns", Unit: "ns", Better: "lower"},
	{Name: "ckpt.store_sync_us", Unit: "us", Better: "lower"},
	{Name: "ckpt.checkpoint_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "recovery.restore_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "recovery.replay_recs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mv.begin_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "mv.ro_begin_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "sv.begin_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "sv.ro_begin_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.facade_ns", Unit: "ns", Better: "lower"},
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// bestNsPerOp runs batch(ops) probeBatches times and returns the fastest
// batch's nanoseconds per operation.
func bestNsPerOp(ops int, batch func(n int)) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < probeBatches; i++ {
		t0 := time.Now()
		batch(ops)
		best = min(best, time.Since(t0))
	}
	return float64(best.Nanoseconds()) / float64(ops)
}

// lcg steps a cheap key sequence so that probe loops do not time a random
// number generator.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// twoUpdateRecord is the redo record of an update-uniform transaction: two
// 24-byte after-images.
func twoUpdateRecord(id uint64) *wal.Record {
	return &wal.Record{TxID: id, EndTS: id, Ops: []wal.Entry{
		{Table: "rows", Op: wal.OpUpdate, Key: id % probeRows, Payload: workload.Row(id%probeRows, id)},
		{Table: "rows", Op: wal.OpUpdate, Key: (id + 7) % probeRows, Payload: workload.Row((id+7)%probeRows, id)},
	}}
}

// runProbes measures every probe. dir is a scratch directory inside the
// checkout for the ckpt and recovery probes.
func runProbes(dir string) (map[string]float64, error) {
	out := make(map[string]float64, len(probes))

	var oracle ts.Oracle
	funnel := ts.NewFunnel(&oracle)
	out["ts.next_ns"] = bestNsPerOp(1<<19, func(n int) {
		for i := 0; i < n; i++ {
			sink += funnel.Next()
		}
	})

	tt := txn.NewTable()
	t := txn.New(1, 1)
	out["txn.register_remove_ns"] = bestNsPerOp(1<<17, func(n int) {
		for i := 1; i <= n; i++ {
			t.Reset(uint64(i), uint64(i))
			tt.Register(t)
			tt.Remove(uint64(i))
		}
	})

	var pins gc.ReaderPins
	pins.Init(0)
	out["gc.pin_acquire_release_ns"] = bestNsPerOp(1<<19, func(n int) {
		for i := 1; i <= n; i++ {
			pins.Release(pins.Acquire(uint64(i)))
		}
	})

	if err := storageProbes(out); err != nil {
		return nil, err
	}

	layout := workload.SecondaryLayout
	out["keyenc.encode_ns"] = bestNsPerOp(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := layout.Encode(uint64(i)&0xffff, uint64(i)) // values fit their fields by construction
			sink += k
		}
	})

	rec := twoUpdateRecord(1)
	var buf []byte
	out["wal.encode_ns"] = bestNsPerOp(1<<18, func(n int) {
		for i := 0; i < n; i++ {
			buf = wal.EncodeRecord(buf[:0], rec)
		}
	})
	out["wal.encode_b_per_rec"] = float64(len(buf))

	log := wal.Open(wal.Config{Sink: io.Discard})
	var appendErr error
	out["wal.append_async_ns"] = bestNsPerOp(1<<15, func(n int) {
		for i := 0; i < n; i++ {
			if err := log.Append(rec); err != nil {
				appendErr = err
			}
		}
	})
	if err := log.Close(); err != nil || appendErr != nil {
		return nil, fmt.Errorf("wal probe: append=%v close=%v", appendErr, err)
	}

	if err := durabilityProbes(out, dir); err != nil {
		return nil, err
	}
	if err := engineProbes(out); err != nil {
		return nil, err
	}
	return out, nil
}

func storageProbes(out map[string]float64) error {
	tbl, err := storage.NewTable(storage.TableSpec{Name: "probe", Indexes: []storage.IndexSpec{
		{Name: "hash", Key: workload.RowKey, Buckets: probeRows},
		{Name: "ordered", Key: workload.RowKey, Ordered: true},
	}})
	if err != nil {
		return err
	}
	for k := uint64(0); k < probeRows; k++ {
		tbl.Insert(storage.NewVersion(workload.Row(k, k), 2, 1, ^uint64(0)))
	}
	hash, ordered := tbl.Index(0), tbl.Index(1)
	out["storage.hash_lookup_ns"] = bestNsPerOp(1<<18, func(n int) {
		x := uint64(1)
		for i := 0; i < n; i++ {
			x = lcg(x)
			key := x >> 40 % probeRows
			for v := hash.Lookup(key).Head(); v != nil; v = v.Next(0) {
				if v.Key(0) == key {
					sink += v.Begin()
					break
				}
			}
		}
	})

	var list storage.SkipList[uint64]
	for k := uint64(0); k < probeRows; k++ {
		list.GetOrCreate(k * 2).V = k
	}
	out["storage.skiplist_get_ns"] = bestNsPerOp(1<<15, func(n int) {
		x := uint64(1)
		for i := 0; i < n; i++ {
			x = lcg(x)
			sink += list.Get(x >> 40 % probeRows * 2).V
		}
	})
	out["storage.skiplist_seek_ns"] = bestNsPerOp(1<<15, func(n int) {
		x := uint64(1)
		for i := 0; i < n; i++ {
			x = lcg(x)
			sink += list.Seek(x>>40%probeRows*2 + 1).V // odd keys are absent: Seek lands on the successor
		}
	})

	var curErr error
	out["storage.cursor_next_ns"] = bestNsPerOp(probeRows*8, func(n int) {
		for done := 0; done < n; {
			cur, err := ordered.ScanRange(0, probeRows-1)
			if err != nil {
				curErr = err
				return
			}
			for _, key, ok := cur.Next(); ok; _, key, ok = cur.Next() {
				sink += key
				done++
			}
		}
	})
	if curErr != nil {
		return curErr
	}

	var pool storage.VersionPool
	payload := workload.Row(1, 1)
	out["storage.version_get_put_ns"] = bestNsPerOp(1<<18, func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get(payload, 1, uint64(i), ^uint64(0)))
		}
	})

	arena := tbl.Arena()
	out["storage.arena_get_put_ns"] = bestNsPerOp(1<<18, func(n int) {
		for i := 0; i < n; i++ {
			arena.Put(arena.Get(256))
		}
	})
	return nil
}

// durabilityProbes times the store's write+fsync, one checkpoint of a
// probeRows-row table, its restore, and the replay of a probeRows-record log.
func durabilityProbes(out map[string]float64, dir string) error {
	dir = filepath.Join(dir, fmt.Sprintf("probe-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	store, err := ckpt.OpenStore(dir)
	if err != nil {
		return err
	}
	frame := wal.EncodeRecord(nil, twoUpdateRecord(1))
	var syncErr error
	out["ckpt.store_sync_us"] = bestNsPerOp(16, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := store.Write(frame); err != nil {
				syncErr = err
			}
			if err := store.Sync(); err != nil {
				syncErr = err
			}
		}
	}) / 1e3
	if syncErr != nil {
		return fmt.Errorf("store probe: %w", syncErr)
	}
	if err := store.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}

	// Checkpoint and restore: the frames written above are gone, the store
	// holds one checkpoint of a loaded table and an empty log tail.
	if store, err = ckpt.OpenStore(dir); err != nil {
		return err
	}
	db, err := core.Open(core.Config{Scheme: core.MVOptimistic, LogSink: store})
	if err != nil {
		return err
	}
	tbl, err := workload.Table(db, probeRows)
	if err != nil {
		return err
	}
	workload.Load(db, tbl, probeRows)
	cst, err := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: probeRows - 1}}, ckpt.Options{}).Run()
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	out["ckpt.checkpoint_rows_per_s"] = float64(cst.Rows) / cst.Elapsed.Seconds()
	if err := db.Close(); err != nil {
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}

	fresh := func() (*core.Database, recovery.TableSet, error) {
		db, err := core.Open(core.Config{Scheme: core.MVOptimistic})
		if err != nil {
			return nil, nil, err
		}
		tbl, err := workload.Table(db, probeRows)
		return db, recovery.TableSet{"rows": tbl}, err
	}
	if store, err = ckpt.OpenStore(dir); err != nil {
		return err
	}
	defer func() { _ = store.Close() }() // only read from: no write or sync error to lose
	db, tables, err := fresh()
	if err != nil {
		return err
	}
	rst, err := recovery.Recover(db, tables, store, recovery.Options{})
	if err != nil {
		return fmt.Errorf("restore probe: %w", err)
	}
	if rst.RowsRestored != probeRows {
		return fmt.Errorf("restore probe: %d rows restored, want %d", rst.RowsRestored, probeRows)
	}
	out["recovery.restore_rows_per_s"] = float64(rst.RowsRestored) / rst.Elapsed.Seconds()

	// Replay: the restored table takes a log of probeRows two-update records.
	var log bytes.Buffer
	var frameBuf []byte
	for id := uint64(1); id <= probeRows; id++ {
		frameBuf = wal.EncodeRecord(frameBuf[:0], twoUpdateRecord(id))
		log.Write(frameBuf)
	}
	t0 := time.Now()
	pst, err := recovery.Replay(db, tables, &log)
	if err != nil {
		return fmt.Errorf("replay probe: %w", err)
	}
	out["recovery.replay_recs_per_s"] = float64(pst.Records) / time.Since(t0).Seconds()
	return db.Close()
}

// engineProbes times an empty transaction — begin and commit, nothing
// between — on each engine's registered and read-only lanes, and the cost of
// going through the core facade instead of the engine.
func engineProbes(out map[string]float64) error {
	const ops = 1 << 16
	var commitErr error
	note := func(err error) {
		if err != nil {
			commitErr = err
		}
	}

	mvEng := mv.NewEngine(mv.Config{})
	out["mv.begin_commit_ns"] = bestNsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			note(mvEng.Begin(mv.Optimistic, mv.ReadCommitted).Commit())
		}
	})
	out["mv.ro_begin_commit_ns"] = bestNsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			note(mvEng.BeginReadOnly().Commit())
		}
	})
	note(mvEng.Close())

	svEng := sv.NewEngine(sv.Config{})
	out["sv.begin_commit_ns"] = bestNsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			note(svEng.Begin(core.ReadCommitted).Commit())
		}
	})
	out["sv.ro_begin_commit_ns"] = bestNsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			note(svEng.BeginReadOnly().Commit())
		}
	})
	note(svEng.Close())

	db, err := core.Open(core.Config{Scheme: core.MVOptimistic})
	if err != nil {
		return err
	}
	opt := core.WithIsolation(core.ReadCommitted)
	through := bestNsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			note(db.Begin(opt).Commit())
		}
	})
	out["core.facade_ns"] = through - out["mv.begin_commit_ns"]
	note(db.Close())
	if commitErr != nil {
		return fmt.Errorf("engine probe: %w", commitErr)
	}
	return nil
}
