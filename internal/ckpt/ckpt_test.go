package ckpt_test

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/wal"
	"repro/internal/workload"
)

const nKeys = 400

func openDB(t *testing.T, scheme core.Scheme, store *ckpt.Store) (*core.Database, *core.Table) {
	t.Helper()
	cfg := core.Config{Scheme: scheme, Durability: core.DurabilityFlush}
	if store != nil {
		cfg.LogSink = store
	}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := workload.Table(db, nKeys)
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// mutate runs a deterministic little history: inserts, updates, deletes.
func mutate(t *testing.T, db *core.Database, tbl *core.Table, lo, hi uint64) {
	t.Helper()
	const batch = 40
	commit := func(tx *core.Tx) {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for base := lo; base < hi; base += batch {
		tx := db.Begin()
		for k := base; k < base+batch && k < hi; k++ {
			if err := tx.Insert(tbl, workload.Row(k, k)); err != nil {
				t.Fatal(err)
			}
		}
		commit(tx)
	}
	tx := db.Begin()
	for k := lo; k < hi; k += 3 {
		if _, err := tx.UpdateWhere(tbl, 0, k, nil, func(old []byte) []byte {
			return workload.Row(k, workload.RowVal(old)+1000)
		}); err != nil {
			t.Fatal(err)
		}
	}
	commit(tx)
	tx = db.Begin()
	for k := lo; k < hi; k += 7 {
		if _, err := tx.DeleteWhere(tbl, 0, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	commit(tx)
}

// dump returns the table's rows by primary key. It scans every key rather
// than looking it up, so a key held by two rows (a record replayed twice)
// fails the test instead of hiding behind the first match.
func dump(t *testing.T, db *core.Database, tbl *core.Table) map[uint64]uint64 {
	t.Helper()
	out := make(map[uint64]uint64)
	tx := db.Begin(core.WithIsolation(core.SnapshotIsolation))
	for k := uint64(0); k < nKeys; k++ {
		n := 0
		err := tx.Scan(tbl, 0, k, nil, func(row core.Row) bool {
			out[k] = workload.RowVal(row.Payload())
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n > 1 {
			t.Fatalf("key %d is held by %d rows", k, n)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return out
}

func diffStates(t *testing.T, want, got map[uint64]uint64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("%s: key %d = %d,%v want %d", label, k, gv, ok, v)
		}
	}
}

func recoverInto(t *testing.T, scheme core.Scheme, dir string, opts recovery.Options) (map[uint64]uint64, recovery.Stats) {
	t.Helper()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, tbl := openDB(t, scheme, nil)
	defer db.Close()
	st, err := recovery.Recover(db, recovery.TableSet{"rows": tbl}, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dump(t, db, tbl), st
}

func schemes() []core.Scheme {
	return []core.Scheme{core.SingleVersion, core.MVPessimistic, core.MVOptimistic}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			dir := t.TempDir()
			store, err := ckpt.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			db, tbl := openDB(t, scheme, store)

			mutate(t, db, tbl, 0, nKeys/2)
			cp := ckpt.New(db, store, []ckpt.TableSpec{
				{Table: tbl, Partitions: 4, Lo: 0, Hi: nKeys - 1},
			}, ckpt.Options{})
			cst, err := cp.Run()
			if err != nil {
				t.Fatal(err)
			}
			if cst.StableTS == 0 || cst.Rows == 0 || cst.Partitions != 4 {
				t.Fatalf("checkpoint stats %+v", cst)
			}
			// Post-checkpoint history becomes the log tail.
			mutate(t, db, tbl, nKeys/2, nKeys)
			want := dump(t, db, tbl)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			got, rst := recoverInto(t, scheme, dir, recovery.Options{})
			diffStates(t, want, got, "recovered")
			if rst.CheckpointTS != cst.StableTS {
				t.Errorf("recovered checkpoint TS %d, want %d", rst.CheckpointTS, cst.StableTS)
			}
			if rst.RowsRestored == 0 || rst.TailRecords == 0 {
				t.Errorf("recovery stats %+v", rst)
			}
		})
	}
}

// TestCheckpointTruncatesLog verifies CompactBelow actually reclaims log
// space and that recovery afterwards still matches.
func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, tbl := openDB(t, core.MVOptimistic, store)
	mutate(t, db, tbl, 0, nKeys)
	before := logBytes(t, store)
	cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: nKeys - 1}}, ckpt.Options{})
	cst, err := cp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cst.ReclaimedBytes == 0 {
		t.Fatal("truncation reclaimed nothing")
	}
	after := logBytes(t, store)
	if after >= before {
		t.Fatalf("log grew: %d -> %d bytes", before, after)
	}
	want := dump(t, db, tbl)
	db.Close()
	store.Close()
	got, rst := recoverInto(t, core.MVOptimistic, dir, recovery.Options{})
	diffStates(t, want, got, "post-truncation recovery")
	if rst.TailRecords != 0 {
		t.Errorf("expected empty tail after quiescent checkpoint, got %d records", rst.TailRecords)
	}
}

func logBytes(t *testing.T, store *ckpt.Store) int64 {
	t.Helper()
	paths, err := store.SegmentPaths()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// openFaultStore opens a store whose files go through a fault registry.
func openFaultStore(t *testing.T, dir string) (*ckpt.Store, *wal.Faults) {
	t.Helper()
	f := wal.NewFaults()
	store, err := ckpt.OpenStoreWith(dir, ckpt.StoreOptions{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	return store, f
}

// assertCrashed checks that a checkpoint run died of an injected crash and
// that the crash latched the store, so the log can write nothing after it.
func assertCrashed(t *testing.T, store *ckpt.Store, runErr error) {
	t.Helper()
	if !errors.Is(runErr, wal.ErrCrashed) {
		t.Fatalf("Run = %v, want wal.ErrCrashed", runErr)
	}
	if err := store.Err(); !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("Err = %v, want the latched crash", err)
	}
	if n, err := store.Write([]byte("x")); n != 0 || !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("Write after the crash = %d, %v; want 0, wal.ErrCrashed", n, err)
	}
}

// TestCrashMidPartition arms the partition-write fault: the checkpoint dies
// half-way through a partition file, no manifest publishes, and recovery
// falls back to full-log replay.
func TestCrashMidPartition(t *testing.T) {
	dir := t.TempDir()
	store, f := openFaultStore(t, dir)
	db, tbl := openDB(t, core.SingleVersion, store)
	mutate(t, db, tbl, 0, nKeys)
	want := dump(t, db, tbl)

	f.Arm(ckpt.FaultPartWrite, 1)
	cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: nKeys - 1}}, ckpt.Options{})
	_, err := cp.Run()
	assertCrashed(t, store, err)
	db.Close()
	store.Close()

	got, rst := recoverInto(t, core.SingleVersion, dir, recovery.Options{})
	diffStates(t, want, got, "after mid-partition crash")
	if rst.CheckpointTS != 0 || rst.RowsRestored != 0 {
		t.Errorf("no checkpoint should be visible, stats %+v", rst)
	}
}

// TestCrashBeforeCurrent arms the manifest fault: the checkpoint is fully
// written but CURRENT never flips, so recovery ignores it and replays the
// whole log.
func TestCrashBeforeCurrent(t *testing.T) {
	dir := t.TempDir()
	store, f := openFaultStore(t, dir)
	db, tbl := openDB(t, core.MVPessimistic, store)
	mutate(t, db, tbl, 0, nKeys)
	want := dump(t, db, tbl)

	f.Arm(ckpt.FaultManifest, 0)
	cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: nKeys - 1}}, ckpt.Options{})
	_, err := cp.Run()
	assertCrashed(t, store, err)
	db.Close()
	store.Close()

	// The manifest exists on disk but is unpublished.
	store2, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man, _, err := store2.LatestManifest(); err != nil || man != nil {
		t.Fatalf("LatestManifest = %v, %v; want nil, nil", man, err)
	}
	store2.Close()

	got, _ := recoverInto(t, core.MVPessimistic, dir, recovery.Options{})
	diffStates(t, want, got, "after pre-CURRENT crash")
}

// TestCrashKillRefusesCommits: at Flush durability a process kill on the
// live segment fails the Write of the batch it lands in, so the log
// acknowledges none of that batch's commits, the store refuses every later
// write, and no later commit is acknowledged either. Every byte written
// before the kill survives: recovery holds each acknowledged row, and the
// refused row exactly when the whole batch landed (wal.freeze).
func TestCrashKillRefusesCommits(t *testing.T) {
	for _, tc := range []struct {
		point     string
		resurrect bool
	}{
		{wal.FaultWALTear, false},
		{wal.FaultWALFreeze, true},
	} {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			store, f := openFaultStore(t, dir)
			db, tbl := openDB(t, core.MVOptimistic, store)
			const acked = 3
			f.Arm(tc.point, acked) // one Write per commit: the 4th dies
			want := make(map[uint64]uint64)
			for k := uint64(0); k < 8; k++ {
				tx := db.Begin()
				err := tx.Insert(tbl, workload.Row(k, k))
				if err == nil {
					err = tx.Commit()
				} else {
					tx.Abort()
				}
				switch {
				case k < acked:
					if err != nil {
						t.Fatalf("commit %d before the kill: %v", k, err)
					}
					want[k] = k
				case k == acked:
					if !errors.Is(err, wal.ErrCrashed) {
						t.Fatalf("commit %d in the killed batch = %v, want wal.ErrCrashed", k, err)
					}
					if tc.resurrect {
						want[k] = k
					}
				case err == nil:
					t.Fatalf("commit %d acknowledged after the kill", k)
				}
			}
			if n, err := store.Write([]byte("x")); n != 0 || !errors.Is(err, wal.ErrCrashed) {
				t.Fatalf("Write after the kill = %d, %v; want 0, wal.ErrCrashed", n, err)
			}
			if err := db.Degraded(); !errors.Is(err, wal.ErrCrashed) {
				t.Fatalf("Degraded = %v, want wal.ErrCrashed", err)
			}
			db.Close()
			store.Close()
			got, _ := recoverInto(t, core.MVOptimistic, dir, recovery.Options{})
			diffStates(t, want, got, "after the kill")
		})
	}
}

// TestPartitionCRCDetected flips a payload byte in a published partition
// file and expects recovery to refuse it.
func TestPartitionCRCDetected(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, tbl := openDB(t, core.MVOptimistic, store)
	mutate(t, db, tbl, 0, nKeys)
	cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: nKeys - 1}}, ckpt.Options{})
	if _, err := cp.Run(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	store.Close()

	store2, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, ckdir, err := store2.LatestManifest()
	if err != nil || man == nil {
		t.Fatalf("LatestManifest: %v, %v", man, err)
	}
	store2.Close()
	var victim string
	for _, p := range man.Tables[0].Parts {
		if p.Rows > 0 {
			victim = filepath.Join(ckdir, p.File)
			break
		}
	}
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	store3, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	db2, tbl2 := openDB(t, core.MVOptimistic, nil)
	defer db2.Close()
	if _, err := recovery.Recover(db2, recovery.TableSet{"rows": tbl2}, store3, recovery.Options{}); err == nil {
		t.Fatal("recovery accepted a corrupted partition")
	}
}

// TestCheckpointUnderWrites: checkpoints taken while writers commit all
// succeed in one attempt (a 1V capture outwaits the writers it meets), and
// recovery from the last one plus the log tail equals the final state.
func TestCheckpointUnderWrites(t *testing.T) {
	const writers, runs = 2, 5
	for _, scheme := range schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			dir := t.TempDir()
			store, err := ckpt.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			db, tbl := openDB(t, scheme, store)
			mutate(t, db, tbl, 0, nKeys)
			cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Partitions: 2, Lo: 0, Hi: nKeys - 1}}, ckpt.Options{})

			var wg sync.WaitGroup
			var commits atomic.Int64
			stop := make(chan struct{})
			for w := uint64(0); w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Writer w owns the keys k ≡ w (mod writers). An abort
					// (a 1V lock timeout against the capture, an MV
					// conflict) just moves on to the next key.
					for k := w; ; k = (k + writers) % nKeys {
						select {
						case <-stop:
							return
						default:
						}
						tx := db.Begin()
						_, err := tx.UpdateWhere(tbl, 0, k, nil, func(old []byte) []byte {
							return workload.Row(k, workload.RowVal(old)+1)
						})
						if err != nil {
							tx.Abort()
						} else if tx.Commit() == nil {
							commits.Add(1)
						}
					}
				}()
			}
			stopWriters := sync.OnceFunc(func() { close(stop); wg.Wait() })
			defer stopWriters() // a failed Run leaves no writer running
			for commits.Load() == 0 {
				runtime.Gosched()
			}
			before := commits.Load()
			for i := 0; i < runs; i++ {
				if _, err := cp.Run(); err != nil {
					t.Fatalf("Run %d under writes: %v", i+1, err)
				}
			}
			during := commits.Load() - before
			stopWriters()
			if during == 0 {
				t.Fatal("no writer committed while the checkpoints ran")
			}
			want := dump(t, db, tbl)
			db.Close()
			store.Close()
			got, _ := recoverInto(t, scheme, dir, recovery.Options{})
			diffStates(t, want, got, "after checkpoints under writes")
		})
	}
}

// ckptDirs lists the store's checkpoint directories.
func ckptDirs(t *testing.T, dir string) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dirs {
		dirs[i] = filepath.Base(d)
	}
	return dirs
}

// assertOnlyCurrent checks that the one checkpoint directory left is the one
// CURRENT names.
func assertOnlyCurrent(t *testing.T, dir, label string) {
	t.Helper()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, cur, err := store.LatestManifest()
	store.Close()
	if err != nil || cur == "" {
		t.Fatalf("%s: LatestManifest: %q, %v", label, cur, err)
	}
	if dirs := ckptDirs(t, dir); !slices.Equal(dirs, []string{filepath.Base(cur)}) {
		t.Fatalf("%s: checkpoint directories %v, want only CURRENT's %s", label, dirs, filepath.Base(cur))
	}
}

// TestCheckpointRemovesSupersededDirs: once CURRENT names a new checkpoint,
// Run removes every other checkpoint directory, the previous checkpoints'
// and that of a Run killed before it published alike, and recovery still
// restores the database row for row.
func TestCheckpointRemovesSupersededDirs(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, tbl := openDB(t, core.MVOptimistic, store)
	spec := []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: nKeys - 1}}
	for i := uint64(0); i < 3; i++ {
		mutate(t, db, tbl, i*nKeys/3, (i+1)*nKeys/3)
		if _, err := ckpt.New(db, store, spec, ckpt.Options{}).Run(); err != nil {
			t.Fatal(err)
		}
	}
	want := dump(t, db, tbl)
	db.Close()
	store.Close()
	assertOnlyCurrent(t, dir, "after three Runs")

	// checkpointRecovered recovers the store into a fresh database and
	// checkpoints that back into the store, with the fault armed if set.
	checkpointRecovered := func(fault string) error {
		t.Helper()
		store, f := openFaultStore(t, dir)
		defer store.Close()
		db, tbl := openDB(t, core.MVOptimistic, nil)
		defer db.Close()
		if _, err := recovery.Recover(db, recovery.TableSet{"rows": tbl}, store, recovery.Options{}); err != nil {
			t.Fatal(err)
		}
		diffStates(t, want, dump(t, db, tbl), "recovered before the checkpoint")
		if fault != "" {
			f.Arm(fault, 0)
		}
		_, err := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: nKeys - 1}}, ckpt.Options{}).Run()
		return err
	}
	if err := checkpointRecovered(ckpt.FaultManifest); !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("Run with %s armed = %v, want wal.ErrCrashed", ckpt.FaultManifest, err)
	}
	if n := len(ckptDirs(t, dir)); n != 2 {
		t.Fatalf("after the killed Run: %d checkpoint directories, want CURRENT's and the unpublished one", n)
	}
	if err := checkpointRecovered(""); err != nil {
		t.Fatal(err)
	}
	assertOnlyCurrent(t, dir, "after the killed Run and one more")
	got, _ := recoverInto(t, core.MVOptimistic, dir, recovery.Options{})
	diffStates(t, want, got, "after the superseded directories went")
}

// TestCheckpointDropsEmptySegments: a Run with no commits since the previous
// one seals a segment holding only its header; truncation removes it, so
// repeated quiescent Runs leave only the live segment.
func TestCheckpointDropsEmptySegments(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, tbl := openDB(t, core.SingleVersion, store)
	mutate(t, db, tbl, 0, nKeys)
	cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: nKeys - 1}}, ckpt.Options{})
	for i := 0; i < 3; i++ {
		if _, err := cp.Run(); err != nil {
			t.Fatal(err)
		}
		if paths, err := store.SegmentPaths(); err != nil || len(paths) != 1 {
			t.Fatalf("after quiescent Run %d: segments %v (%v), want only the live one", i+1, paths, err)
		}
	}
	want := dump(t, db, tbl)
	db.Close()
	store.Close()
	got, rst := recoverInto(t, core.SingleVersion, dir, recovery.Options{})
	diffStates(t, want, got, "after quiescent checkpoints")
	// The old live segment and the one reopening the store started.
	if rst.SegmentsRead != 2 {
		t.Errorf("recovery read %d segments, want 2", rst.SegmentsRead)
	}
}

// TestRecoveryIgnoresStrayFiles puts what a crash can leave beside a valid
// store, a temp copy of a log segment and a CURRENT.tmp naming a checkpoint
// that does not exist, and checks that neither is read: recovery matches
// the database row for row on every scheme.
func TestRecoveryIgnoresStrayFiles(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			dir := t.TempDir()
			store, err := ckpt.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			db, tbl := openDB(t, scheme, store)
			mutate(t, db, tbl, 0, nKeys/2)
			cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: nKeys - 1}}, ckpt.Options{})
			if _, err := cp.Run(); err != nil {
				t.Fatal(err)
			}
			mutate(t, db, tbl, nKeys/2, nKeys)
			want := dump(t, db, tbl)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			paths, err := store.SegmentPaths()
			if err != nil || len(paths) == 0 {
				t.Fatalf("segments %v (%v)", paths, err)
			}
			tail, err := os.ReadFile(paths[len(paths)-1])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[len(paths)-1]+".tmp", tail, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "CURRENT.tmp"), []byte("ckpt-000099\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			got, _ := recoverInto(t, scheme, dir, recovery.Options{})
			diffStates(t, want, got, "recovered beside stray files")
		})
	}
}

// TestStraddlingSegmentRetiredLater: an open transaction holds an MV
// checkpoint's stable timestamp S below later commits, so the segment that
// Run seals straddles S. Truncation leaves it whole; the next Run, whose S
// passes its last record, removes it. Recovery matches after each Run.
func TestStraddlingSegmentRetiredLater(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, tbl := openDB(t, core.MVOptimistic, store)
	defer db.Close()
	mutate(t, db, tbl, 0, nKeys/2)
	open := db.Begin()
	if _, _, err := open.Lookup(tbl, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	mutate(t, db, tbl, nKeys/2, nKeys)
	first, err := store.SegmentPaths()
	if err != nil || len(first) != 1 {
		t.Fatalf("segments %v (%v), want one", first, err)
	}
	sealed := first[0]
	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(sealed)
		if err != nil {
			t.Fatalf("segment %s: %v", sealed, err)
		}
		return fi.Size()
	}
	cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: nKeys - 1}}, ckpt.Options{})
	recoverCopy := func(label string) {
		t.Helper()
		copyDir := t.TempDir()
		if err := os.CopyFS(copyDir, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		got, _ := recoverInto(t, core.MVOptimistic, copyDir, recovery.Options{})
		diffStates(t, dump(t, db, tbl), got, label)
	}

	if err := db.WAL().Flush(); err != nil {
		t.Fatal(err)
	}
	before := size()
	if st, err := cp.Run(); err != nil || st.ReclaimedBytes != 0 {
		t.Fatalf("first Run: %+v, %v; want nothing reclaimed", st, err)
	}
	if after := size(); after != before {
		t.Fatalf("the straddling segment went from %d to %d bytes in the first Run, want it whole", before, after)
	}
	recoverCopy("after the first Run")

	if err := open.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sealed); !os.IsNotExist(err) {
		t.Fatalf("the segment outlived a Run whose S passed its last record: %v", err)
	}
	if paths, err := store.SegmentPaths(); err != nil || len(paths) != 1 {
		t.Fatalf("after the second Run: segments %v (%v), want only the live one", paths, err)
	}
	recoverCopy("after the second Run")
}
