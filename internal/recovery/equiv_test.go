package recovery_test

// Equivalence tests for the recovery paths: checkpoint + tail must
// reconstruct exactly what full-log replay reconstructs, and parallel
// partition restore must be indistinguishable from sequential.

import (
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/wal"
	"repro/internal/workload"
)

// readSegment decodes one log segment with the torn-tail-tolerant reader.
func readSegment(t *testing.T, path string) []*wal.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d := wal.NewReader(f)
	var recs []*wal.Record
	for {
		rec, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// buildWorkloadStore runs a concurrent SecondaryMix workload against a
// logged database, takes a streaming checkpoint mid-run (KeepLog, so the
// full log survives for replay comparison), and returns the store directory
// plus the live database for never-crashed comparison. Callers close db.
func buildWorkloadStore(t *testing.T, dir string, keepLog bool) (*core.Database, *core.Table, *ckpt.Store) {
	t.Helper()
	const n, groups = 128, 8
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(core.Config{
		Scheme:      core.MVOptimistic,
		LogSink:     store,
		Durability:  core.DurabilityFlush,
		LockTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := workload.SecondaryTable(db, n, groups)
	if err != nil {
		t.Fatal(err)
	}
	// Logged initial load.
	tx := db.Begin()
	for k := uint64(0); k < n; k++ {
		if err := tx.Insert(tbl, workload.Row(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	mix := workload.SecondaryMix{Table: tbl, Dist: workload.Uniform{N: n}, N: n, Groups: groups, Scans: 1, W: 2}
	cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Partitions: 4, Lo: 0, Hi: n - 1}},
		ckpt.Options{KeepLog: keepLog})
	run := func(seed int64, txns int) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < txns; i++ {
			tx := db.Begin(core.WithIsolation(core.Serializable))
			if _, err := mix.Run(tx, rng); err != nil {
				tx.Abort()
				continue
			}
			tx.Commit()
		}
	}
	run(1, 200)
	if _, err := cp.Run(); err != nil {
		t.Fatal(err)
	}
	run(2, 200) // post-checkpoint history: the log tail
	return db, tbl, store
}

// state captures a database's externally observable content: the primary
// rows and every group's secondary-prefix scan result in index order.
type state struct {
	Rows   map[uint64]uint64
	Groups [][]uint64
}

func captureState(t *testing.T, db *core.Database, tbl *core.Table) state {
	t.Helper()
	const n, groups = 128, 8
	st := state{Rows: make(map[uint64]uint64)}
	tx := db.Begin(core.WithIsolation(core.SnapshotIsolation))
	for k := uint64(0); k < n; k++ {
		row, ok, err := tx.Lookup(tbl, 0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			st.Rows[k] = workload.RowVal(row.Payload())
		}
	}
	for g := uint64(0); g < groups; g++ {
		var keys []uint64
		err := tx.ScanPrefix(tbl, 1, []uint64{g}, nil, func(r core.Row) bool {
			keys = append(keys, workload.RowKey(r.Payload()))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		st.Groups = append(st.Groups, keys)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return st
}

func recoverState(t *testing.T, dir string, opts recovery.Options) (state, recovery.Stats) {
	t.Helper()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err := core.Open(core.Config{Scheme: core.MVOptimistic})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := workload.SecondaryTable(db, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := recovery.Recover(db, recovery.TableSet{"rows": tbl}, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return captureState(t, db, tbl), st
}

// TestSecondaryMixRecoveryMatchesTwin recovers a SecondaryMix workload and
// compares primary rows and every ScanPrefix against the never-crashed
// database — the secondary non-unique ordered index must come back
// identical, in order (satellite of the recovery rewrite).
func TestSecondaryMixRecoveryMatchesTwin(t *testing.T) {
	dir := t.TempDir()
	db, tbl, store := buildWorkloadStore(t, dir, false)
	twin := captureState(t, db, tbl)
	db.Close()
	store.Close()

	got, st := recoverState(t, dir, recovery.Options{Workers: 4})
	if !reflect.DeepEqual(twin, got) {
		t.Fatalf("recovered state diverges from never-crashed twin\nstats %+v", st)
	}
	if st.RowsRestored == 0 || st.CheckpointTS == 0 {
		t.Fatalf("expected checkpoint-based recovery, stats %+v", st)
	}
}

// TestCheckpointTailMatchesFullReplay keeps the full log alongside the
// checkpoint (KeepLog) and recovers both ways: checkpoint + filtered tail,
// and pure log replay with no checkpoint. The two databases must agree
// exactly — the acceptance bar for checkpoint consistency.
func TestCheckpointTailMatchesFullReplay(t *testing.T) {
	dir := t.TempDir()
	db, _, store := buildWorkloadStore(t, dir, true)
	db.Close()
	store.Close()

	viaCkpt, st := recoverState(t, dir, recovery.Options{Workers: 4})
	if st.CheckpointTS == 0 || st.SkippedRecords == 0 {
		t.Fatalf("KeepLog should leave below-checkpoint records to skip, stats %+v", st)
	}

	// Full replay: same segments, checkpoint ignored.
	store2, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	db2, err := core.Open(core.Config{Scheme: core.MVOptimistic})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := workload.SecondaryTable(db2, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := store2.SegmentPaths()
	if err != nil {
		t.Fatal(err)
	}
	var recs []*wal.Record
	for _, p := range paths {
		recs = append(recs, readSegment(t, p)...)
	}
	if _, err := recovery.ReplayRecords(db2, recovery.TableSet{"rows": tbl2}, recs); err != nil {
		t.Fatal(err)
	}
	viaReplay := captureState(t, db2, tbl2)

	if !reflect.DeepEqual(viaCkpt, viaReplay) {
		t.Fatal("checkpoint+tail recovery diverges from full-log replay")
	}
}

// TestParallelMatchesSequential recovers the same store with one worker and
// with four; the results must be identical.
func TestParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	db, _, store := buildWorkloadStore(t, dir, false)
	db.Close()
	store.Close()

	seq, sst := recoverState(t, dir, recovery.Options{Workers: 1})
	par, pst := recoverState(t, dir, recovery.Options{Workers: 4})
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel recovery diverges from sequential")
	}
	if sst.RowsRestored != pst.RowsRestored || sst.TailRecords != pst.TailRecords {
		t.Fatalf("stats diverge: sequential %+v parallel %+v", sst, pst)
	}
}
