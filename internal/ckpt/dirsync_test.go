package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

var errDirSync = errors.New("injected directory fsync failure")

// dirSyncRecorder replaces syncDir for one test: it logs every directory
// synced, with whether the store's CURRENT existed at that moment, and
// fails the syncs of fail.
type dirSyncRecorder struct {
	root    string
	fail    string
	dirs    []string
	current []bool
}

func recordDirSyncs(t *testing.T, root string) *dirSyncRecorder {
	r := &dirSyncRecorder{root: root}
	orig := syncDir
	syncDir = func(dir string) error {
		r.dirs = append(r.dirs, dir)
		_, err := os.Stat(filepath.Join(r.root, "CURRENT"))
		r.current = append(r.current, err == nil)
		if dir == r.fail {
			return errDirSync
		}
		return orig(dir)
	}
	t.Cleanup(func() { syncDir = orig })
	return r
}

// openDirSyncDB opens a store in a fresh subdirectory and a database logging
// into it, with some committed rows.
func openDirSyncDB(t *testing.T) (r *dirSyncRecorder, store *Store, db *core.Database, tbl *core.Table) {
	t.Helper()
	parent := t.TempDir()
	dir := filepath.Join(parent, "db")
	r = recordDirSyncs(t, dir)
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{parent, dir}; !slices.Equal(r.dirs, want) {
		t.Fatalf("OpenStore synced %v, want %v (the mkdir, then the new segment)", r.dirs, want)
	}
	db, err = core.Open(core.Config{Scheme: core.MVOptimistic, LogSink: store, Durability: core.DurabilityFlush})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close(); store.Close() })
	if tbl, err = workload.Table(db, 100); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k := uint64(0); k < 100; k++ {
		if err := tx.Insert(tbl, workload.Row(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return r, store, db, tbl
}

// TestCheckpointDirSyncOrder: a checkpoint syncs the root after creating
// ckpt-N/ and after rotating to a new segment, syncs ckpt-N/ once its
// partition files are written and again after the manifest's rename, and
// syncs the root after CURRENT's rename and after log compaction, in that
// order.
func TestCheckpointDirSyncOrder(t *testing.T) {
	r, store, db, tbl := openDirSyncDB(t)
	root, ckptDir := store.Dir(), filepath.Join(store.Dir(), "ckpt-000001")
	r.dirs, r.current = nil, nil
	cp := New(db, store, []TableSpec{{Table: tbl, Partitions: 2, Lo: 0, Hi: 99}}, Options{})
	st, err := cp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReclaimedBytes == 0 {
		t.Fatal("the checkpoint compacted nothing; the last sync below would be unchecked")
	}
	want := []string{root, root, ckptDir, ckptDir, root, root}
	if !slices.Equal(r.dirs, want) {
		t.Fatalf("checkpoint synced %v, want %v", r.dirs, want)
	}
	if wantCur := []bool{false, false, false, false, true, true}; !slices.Equal(r.current, wantCur) {
		t.Fatalf("CURRENT existed at the syncs: %v, want %v", r.current, wantCur)
	}
}

// TestDirSyncFailureLatches: a failed directory sync fails the operation and
// latches the store like a failed fsync, so later log writes are refused.
func TestDirSyncFailureLatches(t *testing.T) {
	t.Run("checkpoint", func(t *testing.T) {
		r, store, db, tbl := openDirSyncDB(t)
		r.fail = filepath.Join(store.Dir(), "ckpt-000001")
		cp := New(db, store, []TableSpec{{Table: tbl, Lo: 0, Hi: 99}}, Options{})
		if _, err := cp.Run(); !errors.Is(err, errDirSync) {
			t.Fatalf("Run = %v, want the directory sync failure", err)
		}
		if man, _, err := store.LatestManifest(); man != nil || err != nil {
			t.Fatalf("a checkpoint was published (%v, %v) after its directory failed to sync", man, err)
		}
		if err := store.Err(); !errors.Is(err, errDirSync) {
			t.Fatalf("Err = %v, want the latched directory sync failure", err)
		}
		if _, err := store.Write([]byte("x")); !errors.Is(err, errDirSync) {
			t.Fatalf("Write after the failure = %v, want the latched error", err)
		}
	})
	t.Run("rotate", func(t *testing.T) {
		r, store, _, _ := openDirSyncDB(t)
		r.fail = store.Dir()
		if err := store.Rotate(); !errors.Is(err, errDirSync) {
			t.Fatalf("Rotate = %v, want the directory sync failure", err)
		}
		if err := store.Err(); !errors.Is(err, errDirSync) {
			t.Fatalf("Err = %v, want the latched directory sync failure", err)
		}
		if err := store.Sync(); !errors.Is(err, errDirSync) {
			t.Fatalf("Sync after the failure = %v, want the latched error", err)
		}
	})
}
