package mv

// Record-lock edge cases of Section 4.1.1/4.2.1: counter saturation, the
// NoMoreReadLocks starvation guard and lock-word transitions under eager
// updates.

import (
	"testing"

	"repro/internal/field"
	"repro/internal/storage"
)

func lookupVersion(t *testing.T, e *Engine, tbl *storage.Table, key uint64) *storage.Version {
	t.Helper()
	tx := e.Begin(Optimistic, ReadCommitted)
	v, ok, err := tx.Lookup(tbl, 0, key, nil)
	if err != nil || !ok {
		t.Fatalf("lookup: ok=%v err=%v", ok, err)
	}
	mustCommit(t, tx)
	return v
}

func TestReadLockCounterSaturation(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	// 255 pessimistic repeatable-read transactions hold read locks.
	var holders []*Tx
	for i := 0; i < field.MaxReadLocks; i++ {
		tx := e.Begin(Pessimistic, RepeatableRead)
		if _, ok := readVal(t, tx, tbl, 1); !ok {
			t.Fatalf("holder %d read failed", i)
		}
		holders = append(holders, tx)
	}
	v := lookupVersion(t, e, tbl, 1)
	if got := field.Readers(v.End()); got != field.MaxReadLocks {
		t.Fatalf("Readers = %d, want %d", got, field.MaxReadLocks)
	}
	// The 256th read lock fails; the transaction must abort (Section
	// 4.1.1: "If so, the transaction aborts").
	extra := e.Begin(Pessimistic, RepeatableRead)
	if _, _, err := extra.Lookup(tbl, 0, 1, nil); err != ErrReadLockFailed {
		t.Fatalf("saturated lock: err = %v, want ErrReadLockFailed", err)
	}
	extra.Abort()
	// Releasing the holders restores the canonical unlocked word.
	for _, h := range holders {
		mustCommit(t, h)
	}
	if w := v.End(); !field.IsTS(w) || field.TS(w) != field.Infinity {
		t.Fatalf("End = %x after release, want infinity timestamp", w)
	}
	up := e.Begin(Pessimistic, ReadCommitted)
	if err := writeVal(t, up, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, up)
}

func TestNoMoreReadLocksGuard(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))

	reader := e.Begin(Pessimistic, RepeatableRead)
	if _, ok := readVal(t, reader, tbl, 1); !ok {
		t.Fatal("read failed")
	}
	// Eager update: the writer write-locks the read-locked version and owes
	// a wait-for.
	writer := e.Begin(Pessimistic, ReadCommitted)
	if err := writeVal(t, writer, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	v := lookupVersion(t, e, tbl, 1)
	if !field.HasWriter(v.End()) || field.Readers(v.End()) != 1 {
		t.Fatalf("lock word = %x, want writer + 1 reader", v.End())
	}
	// The reader releases the last read lock: ReadLockCount goes to zero
	// and NoMoreReadLocks is set atomically, so the writer's commit cannot
	// be postponed again (Section 4.2.1).
	mustCommit(t, reader)
	w := v.End()
	if !field.IsLock(w) || field.Readers(w) != 0 || !field.NoMoreReadLocks(w) {
		t.Fatalf("lock word = %x, want 0 readers + NoMoreReadLocks", w)
	}
	// A late reader cannot take a new read lock on this version.
	late := e.Begin(Pessimistic, RepeatableRead)
	if _, _, err := late.Lookup(tbl, 0, 1, nil); err != ErrReadLockFailed {
		t.Fatalf("late read lock: err = %v, want ErrReadLockFailed", err)
	}
	late.Abort()
	mustCommit(t, writer)
}

func TestWriteLockReleasedOnAbortPreservesReadLocks(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	reader := e.Begin(Pessimistic, RepeatableRead)
	if _, ok := readVal(t, reader, tbl, 1); !ok {
		t.Fatal("read failed")
	}
	writer := e.Begin(Pessimistic, ReadCommitted)
	if err := writeVal(t, writer, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	// The writer aborts: the write lock is cleared but the read lock
	// remains.
	if err := writer.Abort(); err != nil {
		t.Fatal(err)
	}
	v := lookupVersion(t, e, tbl, 1)
	w := v.End()
	if !field.IsLock(w) || field.HasWriter(w) || field.Readers(w) != 1 {
		t.Fatalf("lock word after abort = %x, want 1 reader, no writer", w)
	}
	mustCommit(t, reader)
	// Fully released: back to an infinity timestamp.
	if w := v.End(); !field.IsTS(w) || field.TS(w) != field.Infinity {
		t.Fatalf("End = %x after all releases, want infinity", w)
	}
}

func TestBucketLockReleasedOnAbort(t *testing.T) {
	e, tbl := newTestEngine(t)
	ser := e.Begin(Pessimistic, Serializable)
	if _, ok := readVal(t, ser, tbl, 7); ok {
		t.Fatal("unexpected row")
	}
	b := tbl.Index(0).Lookup(7)
	if b.LockCount() != 1 {
		t.Fatalf("LockCount = %d during scan", b.LockCount())
	}
	if err := ser.Abort(); err != nil {
		t.Fatal(err)
	}
	if b.LockCount() != 0 {
		t.Fatalf("LockCount = %d after abort", b.LockCount())
	}
}

// Double update of the same version within one transaction is rejected (the
// correct target is the transaction's own new version).
func TestDoubleUpdateSameVersionRejected(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	tx := e.Begin(Optimistic, ReadCommitted)
	v, ok, err := tx.Lookup(tbl, 0, 1, nil)
	if err != nil || !ok {
		t.Fatal("lookup failed")
	}
	if err := tx.Update(tbl, v, testPayload(1, 11)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, v, testPayload(1, 12)); err != ErrWriteConflict {
		t.Fatalf("double update err = %v, want ErrWriteConflict", err)
	}
	tx.Abort()
}

// Updating through the fresh handle (the transaction's own new version)
// works: the paper's "if TB has updated a record multiple times, only the
// latest version is visible to it".
func TestRepeatedUpdateThroughLatest(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 0))
	tx := e.Begin(Optimistic, ReadCommitted)
	for i := 1; i <= 5; i++ {
		if err := writeVal(t, tx, tbl, 1, uint64(i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if v, ok := readVal(t, tx, tbl, 1); !ok || v != uint64(i) {
			t.Fatalf("self-read after update %d = %d,%v", i, v, ok)
		}
	}
	mustCommit(t, tx)
	after := e.Begin(Optimistic, ReadCommitted)
	if v, _ := readVal(t, after, tbl, 1); v != 5 {
		t.Fatalf("final value = %d, want 5", v)
	}
	mustCommit(t, after)
}
