package mv

// Tests for the registration-free read-only fast lane: zero oracle
// increments, no transaction-table entry, write rejection, reader-pin
// lifecycle, and — under -race with aggressive recycling — snapshot
// consistency while writers commit, abort, and recycle underneath.

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/field"
	"repro/internal/storage"
	"repro/internal/txn"
)

func roTable(t *testing.T, e *Engine, rows uint64) *storage.Table {
	t.Helper()
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "t",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: func(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }, Buckets: int(rows)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < rows; k++ {
		e.LoadRow(tbl, stressRow(k, k))
	}
	return tbl
}

func TestReadOnlyZeroIncrementsAndNoRegistration(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1})
	defer e.Close()
	tbl := roTable(t, e, 16)

	before := e.Oracle().Current()
	for i := 0; i < 100; i++ {
		tx := e.BeginReadOnly()
		if !tx.ReadOnly() {
			t.Fatal("BeginReadOnly returned a non-read-only tx")
		}
		if tx.T.ID() != txn.Anonymous {
			t.Fatalf("fast-lane tx has ID %d, want anonymous", tx.T.ID())
		}
		if n := e.TxnTable().Len(); n != 0 {
			t.Fatalf("read-only tx registered: table has %d entries", n)
		}
		v, ok, err := tx.Lookup(tbl, 0, uint64(i)%16, nil)
		if err != nil || !ok {
			t.Fatalf("lookup: ok=%v err=%v", ok, err)
		}
		if !stressRowOK(v.Payload()) {
			t.Fatal("corrupt payload")
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if after := e.Oracle().Current(); after != before {
		t.Fatalf("read-only txns moved the shared counter: %d -> %d", before, after)
	}
	s := e.Stats()
	if s.ReadOnlyBegins != 100 {
		t.Fatalf("ReadOnlyBegins = %d, want 100", s.ReadOnlyBegins)
	}
	if s.FastCommits != 100 {
		t.Fatalf("FastCommits = %d, want 100", s.FastCommits)
	}
	if s.Commits != 100 {
		t.Fatalf("Commits = %d, want 100", s.Commits)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1})
	defer e.Close()
	tbl := roTable(t, e, 4)

	tx := e.BeginReadOnly()
	if err := tx.Insert(tbl, stressRow(99, 99)); err != ErrReadOnlyTx {
		t.Fatalf("Insert = %v, want ErrReadOnlyTx", err)
	}
	v, _, err := tx.Lookup(tbl, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, v, stressRow(1, 2)); err != ErrReadOnlyTx {
		t.Fatalf("Update = %v, want ErrReadOnlyTx", err)
	}
	if err := tx.Delete(tbl, v); err != ErrReadOnlyTx {
		t.Fatalf("Delete = %v, want ErrReadOnlyTx", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrTxDone {
		t.Fatalf("second Commit = %v, want ErrTxDone", err)
	}
}

// TestReadOnlySnapshotIgnoresLaterCommits pins the snapshot semantics: a
// fast-lane reader must not observe writes committed after its begin.
func TestReadOnlySnapshotIgnoresLaterCommits(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1})
	defer e.Close()
	tbl := roTable(t, e, 4)

	ro := e.BeginReadOnly()

	// Commit an update after the reader began.
	w := e.Begin(Optimistic, ReadCommitted)
	v, _, err := w.Lookup(tbl, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Update(tbl, v, stressRow(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	got, ok, err := ro.Lookup(tbl, 0, 1, nil)
	if err != nil || !ok {
		t.Fatalf("reader lookup: ok=%v err=%v", ok, err)
	}
	if val := binary.LittleEndian.Uint64(got.Payload()[8:]); val != 1 {
		t.Fatalf("reader saw post-snapshot value %d, want 1", val)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}

	// A fresh reader sees the new value.
	ro2 := e.BeginReadOnly()
	got, _, err = ro2.Lookup(tbl, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if val := binary.LittleEndian.Uint64(got.Payload()[8:]); val != 100 {
		t.Fatalf("fresh reader saw %d, want 100", val)
	}
	if err := ro2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestVisibilityReaderAbsentFromTable unit-tests checkVisibility for a
// reader with no transaction-table entry (the paper's case analyses assume
// the reader is registered; the fast lane is not).
func TestVisibilityReaderAbsentFromTable(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1})
	defer e.Close()
	anon := txn.New(txn.Anonymous, 0)

	// Committed version [10, 20): visible only inside the interval.
	v := storage.NewVersion([]byte("x"), 1, field.FromTS(10), field.FromTS(20))
	for rt, want := range map[uint64]bool{9: false, 10: true, 19: true, 20: false} {
		out := e.checkVisibility(anon, v, rt)
		if out.visible != want || out.dep != nil {
			t.Fatalf("rt=%d: visible=%v dep=%v, want %v/nil", rt, out.visible, out.dep, want)
		}
	}

	// Latest committed version [10, inf): visible at any rt >= 10.
	v2 := storage.NewVersion([]byte("x"), 1, field.FromTS(10), field.FromTS(field.Infinity))
	if out := e.checkVisibility(anon, v2, 15); !out.visible {
		t.Fatal("latest version invisible to anonymous reader")
	}

	// Uncommitted version of an active writer: invisible to the anonymous
	// reader (and the ID can never collide with txn.Anonymous).
	w := e.Begin(Optimistic, ReadCommitted)
	v3 := storage.NewVersion([]byte("x"), 1, field.FromTxID(w.T.ID()), field.FromTS(field.Infinity))
	if out := e.checkVisibility(anon, v3, e.Oracle().Current()); out.visible {
		t.Fatal("active writer's uncommitted version visible to anonymous reader")
	}
	// Version write-locked by an active writer: still visible (Table 2).
	v4 := storage.NewVersion([]byte("x"), 1, field.FromTS(1), field.Lock(w.T.ID(), 0, false))
	if out := e.checkVisibility(anon, v4, e.Oracle().Current()); !out.visible {
		t.Fatal("write-locked latest version invisible to anonymous reader")
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlySnapshotStress is the fast-lane variant of TestRecycleStress:
// writers transfer value between the two halves of a row pair (keeping each
// pair's sum constant) with commits, aborts, and aggressive recycling, while
// fast-lane readers assert that every snapshot shows a consistent pair sum
// and self-verifying payloads. Run with -race.
func TestReadOnlySnapshotStress(t *testing.T) {
	const (
		pairs   = 16
		writers = 4
		readers = 4
		iters   = 3000
	)
	e := NewEngine(Config{GCEvery: 1, GCQuota: 128, DeadlockInterval: -1})
	defer e.Close()
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "acct",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: func(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }, Buckets: 2 * pairs},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Row 2i and 2i+1 form a pair whose values always sum to 1000.
	for k := uint64(0); k < 2*pairs; k++ {
		e.LoadRow(tbl, stressRow(k, 500))
	}

	var fail atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 31337))
			for i := 0; i < iters && !fail.Load(); i++ {
				pair := rng.Uint64() % pairs
				a, b := 2*pair, 2*pair+1
				amount := rng.Uint64() % 50
				tx := e.Begin(Optimistic, SnapshotIsolation)
				va, oka, err1 := tx.Lookup(tbl, 0, a, nil)
				vb, okb, err2 := tx.Lookup(tbl, 0, b, nil)
				if err1 != nil || err2 != nil || !oka || !okb {
					tx.Abort()
					continue
				}
				valA := binary.LittleEndian.Uint64(va.Payload()[8:])
				valB := binary.LittleEndian.Uint64(vb.Payload()[8:])
				if valA < amount {
					tx.Abort()
					continue
				}
				if tx.Update(tbl, va, stressRow(a, valA-amount)) != nil ||
					tx.Update(tbl, vb, stressRow(b, valB+amount)) != nil {
					tx.Abort()
					continue
				}
				if rng.Intn(8) == 0 {
					tx.Abort() // exercise abort postprocessing under readers
					continue
				}
				_ = tx.Commit()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) * 7919))
			for i := 0; i < iters && !fail.Load(); i++ {
				pair := rng.Uint64() % pairs
				a, b := 2*pair, 2*pair+1
				tx := e.BeginReadOnly()
				va, oka, err1 := tx.Lookup(tbl, 0, a, nil)
				vb, okb, err2 := tx.Lookup(tbl, 0, b, nil)
				if err1 != nil || err2 != nil {
					t.Errorf("reader error: %v %v", err1, err2)
					fail.Store(true)
					tx.Abort()
					return
				}
				if !oka || !okb {
					t.Error("reader lost a row")
					fail.Store(true)
					tx.Abort()
					return
				}
				if !stressRowOK(va.Payload()) || !stressRowOK(vb.Payload()) {
					t.Error("reader saw a corrupt payload (use-after-recycle)")
					fail.Store(true)
					tx.Abort()
					return
				}
				sum := binary.LittleEndian.Uint64(va.Payload()[8:]) + binary.LittleEndian.Uint64(vb.Payload()[8:])
				if sum != 1000 {
					t.Errorf("inconsistent snapshot: pair %d sums to %d, want 1000", pair, sum)
					fail.Store(true)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("read-only commit: %v", err)
					fail.Store(true)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// All pins released: the watermark must be free to reach the clock again.
	e.CollectGarbage(1 << 20)
	if got := e.Collector().Watermark(); got != e.Oracle().Current() {
		t.Fatalf("watermark %d stuck below clock %d after all pins released", got, e.Oracle().Current())
	}
}
