package recovery_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/workload"
)

// largeRowSizes lie just above the version's inline buffer, between it and
// 8 KB, and on both sides of 8 KB: every one of them is kept by reference.
var largeRowSizes = []int{storage.InlinePayload + 1, 200, 8 << 10, 8<<10 + 1}

const (
	largeRows    = 16      // keys 0..15; key k has size largeRowSizes[k%4]
	largeSmallLo = 1 << 10 // first key of the rows reusing collected versions
	largeTailLo  = 1 << 11 // first key inserted after the checkpoint
	largeHi      = largeTailLo + 8
)

// largeRow is a fresh payload of size bytes: the key, the value, then a
// filler that depends on both, so a row that lost or shared its bytes reads
// differently.
func largeRow(key, val uint64, size int) []byte {
	p := make([]byte, size)
	binary.LittleEndian.PutUint64(p, key)
	binary.LittleEndian.PutUint64(p[8:], val)
	for i := 16; i < size; i++ {
		p[i] = byte(key*31 + val*7 + uint64(i))
	}
	return p
}

func largeRowTable(t *testing.T, db *core.Database) *core.Table {
	t.Helper()
	tbl, err := db.CreateTable(core.TableSpec{
		Name:    "big",
		Indexes: []core.IndexSpec{{Name: "pk", Key: workload.RowKey, Buckets: 1 << 12}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// checkLargeRows looks up every key of the test's key space and compares
// the row, byte for byte, against want; a key missing from want must have no
// row.
func checkLargeRows(t *testing.T, db *core.Database, tbl *core.Table, want map[uint64][]byte, when string) {
	t.Helper()
	tx := db.Begin(core.WithIsolation(core.SnapshotIsolation))
	for k := uint64(0); k < largeHi; k++ {
		row, ok, err := tx.Lookup(tbl, 0, k, nil)
		if err != nil {
			t.Fatalf("%s: lookup %d: %v", when, k, err)
		}
		w, exp := want[k]
		switch {
		case ok != exp:
			t.Fatalf("%s: key %d present %v, want %v", when, k, ok, exp)
		case ok && !bytes.Equal(row.Payload(), w):
			t.Fatalf("%s: key %d: %d-byte row differs from the %d bytes written", when, k, len(row.Payload()), len(w))
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverLargeRows writes rows above the inline buffer on every engine:
// loads, inserts and updates, each payload a fresh slice the engine keeps.
// On MV the replaced versions are collected and reused for rows of 29 to 44
// bytes, inline in the same 96-byte shape, which must leave the large rows
// intact. A checkpoint, a log tail and
// recovery into a fresh database must bring every row back byte for byte.
func TestRecoverLargeRows(t *testing.T) {
	for _, scheme := range []core.Scheme{core.MVOptimistic, core.MVPessimistic, core.SingleVersion} {
		t.Run(scheme.String(), func(t *testing.T) { runRecoverLargeRows(t, scheme) })
	}
}

func runRecoverLargeRows(t *testing.T, scheme core.Scheme) {
	dir := t.TempDir()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(core.Config{
		Scheme:      scheme,
		LogSink:     store,
		Durability:  core.DurabilityFlush,
		LockTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := largeRowTable(t, db)
	want := make(map[uint64][]byte)
	size := func(k uint64) int { return largeRowSizes[k%uint64(len(largeRowSizes))] }
	commit := func(tx *core.Tx) {
		t.Helper()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Half the rows by bulk load, half by a logged insert.
	for k := uint64(0); k < largeRows/2; k++ {
		want[k] = largeRow(k, 0, size(k))
		db.LoadRow(tbl, largeRow(k, 0, size(k)))
	}
	tx := db.Begin()
	for k := uint64(largeRows / 2); k < largeRows; k++ {
		want[k] = largeRow(k, 0, size(k))
		if err := tx.Insert(tbl, largeRow(k, 0, size(k))); err != nil {
			t.Fatal(err)
		}
	}
	commit(tx)
	checkLargeRows(t, db, tbl, want, "after insert")

	// Three updates per row, by Update and by UpdateWhere.
	const rounds = 3
	for val := uint64(1); val <= rounds; val++ {
		for k := uint64(0); k < largeRows; k++ {
			want[k] = largeRow(k, val, size(k))
			tx := db.Begin()
			if val%2 == 0 {
				row, ok, err := tx.Lookup(tbl, 0, k, nil)
				if err != nil || !ok {
					t.Fatalf("lookup %d: %v %v", k, ok, err)
				}
				err = tx.Update(tbl, row, largeRow(k, val, size(k)))
				if err != nil {
					t.Fatal(err)
				}
			} else if n, err := tx.UpdateWhere(tbl, 0, k, nil, func([]byte) []byte {
				return largeRow(k, val, size(k))
			}); err != nil || n != 1 {
				t.Fatalf("update %d: %d rows, %v", k, n, err)
			}
			commit(tx)
		}
	}
	checkLargeRows(t, db, tbl, want, "after update")

	// MV: unlink every replaced version, then insert rows of 29 to 44 bytes,
	// too big for a 64-byte version and inline in a 96-byte one, each commit
	// advancing the clock and each GC round handing quiesced versions back
	// to the pool, so the inline rows land in versions that held a payload
	// by reference.
	var recycled uint64
	if e := db.MV(); e != nil {
		for i := 0; e.Stats().VersionsReclaims < largeRows*rounds; i++ {
			if i == 100 {
				t.Fatalf("%d of %d replaced versions reclaimed", e.Stats().VersionsReclaims, largeRows*rounds)
			}
			db.CollectGarbage(0)
		}
		recycled = e.Stats().VersionsRecycled
	}
	for k := uint64(largeSmallLo); k < largeSmallLo+32; k++ {
		n := storage.SmallPayload1 + 1 + int(k%(storage.InlinePayload-storage.SmallPayload1))
		want[k] = largeRow(k, k, n)
		tx := db.Begin()
		if err := tx.Insert(tbl, largeRow(k, k, n)); err != nil {
			t.Fatal(err)
		}
		commit(tx)
		db.CollectGarbage(0)
	}
	if e := db.MV(); e != nil && e.Stats().VersionsRecycled == recycled {
		t.Fatal("no inline row reused a collected version")
	}
	checkLargeRows(t, db, tbl, want, "after reuse")

	// Checkpoint, then a log tail that updates every large row once more and
	// inserts one new row of each size.
	cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Partitions: 2, Lo: 0, Hi: largeHi}}, ckpt.Options{})
	if _, err := cp.Run(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	for k := uint64(0); k < largeRows; k++ {
		want[k] = largeRow(k, rounds+1, size(k))
		if n, err := tx.UpdateWhere(tbl, 0, k, nil, func([]byte) []byte {
			return largeRow(k, rounds+1, size(k))
		}); err != nil || n != 1 {
			t.Fatalf("tail update %d: %d rows, %v", k, n, err)
		}
	}
	for i, n := range largeRowSizes {
		k := uint64(largeTailLo + i)
		want[k] = largeRow(k, 0, n)
		if err := tx.Insert(tbl, largeRow(k, 0, n)); err != nil {
			t.Fatal(err)
		}
	}
	commit(tx)
	checkLargeRows(t, db, tbl, want, "before recovery")
	db.Close()
	store.Close()

	store, err = ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rdb, err := core.Open(core.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rtbl := largeRowTable(t, rdb)
	st, err := recovery.Recover(rdb, recovery.TableSet{"big": rtbl}, store, recovery.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsRestored == 0 || st.CheckpointTS == 0 {
		t.Fatalf("expected checkpoint-based recovery, stats %+v", st)
	}
	checkLargeRows(t, rdb, rtbl, want, "after recovery")
}
