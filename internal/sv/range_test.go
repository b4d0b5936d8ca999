package sv

import (
	"errors"
	"testing"
	"time"

	"repro/internal/iso"
	"repro/internal/storage"
)

func newOrderedTestEngine(t *testing.T, timeout time.Duration) (*Engine, *Table) {
	t.Helper()
	e := NewEngine(Config{LockTimeout: timeout})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Ordered: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

func collectRange(t *testing.T, tx *Tx, tbl *Table, lo, hi uint64) []uint64 {
	t.Helper()
	var keys []uint64
	err := tx.ScanRange(tbl, 0, lo, hi, nil, func(r *Record) bool {
		keys = append(keys, payloadKey(r.Payload()))
		return true
	})
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	return keys
}

func TestSVScanRangeBasic(t *testing.T) {
	for _, level := range []iso.Level{iso.ReadCommitted, iso.SnapshotIsolation, iso.RepeatableRead, iso.Serializable} {
		t.Run(level.String(), func(t *testing.T) {
			e, tbl := newOrderedTestEngine(t, time.Second)
			for k := uint64(0); k < 100; k++ {
				e.LoadRow(tbl, testPayload(k, k*10))
			}
			tx := e.Begin(level)
			keys := collectRange(t, tx, tbl, 10, 19)
			if len(keys) != 10 {
				t.Fatalf("got %v", keys)
			}
			for i, k := range keys {
				if k != uint64(10+i) {
					t.Fatalf("out of order: %v", keys)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSVScanRangeUnordered(t *testing.T) {
	e, tbl := newTestEngine(t, time.Second)
	tx := e.Begin(iso.ReadCommitted)
	err := tx.ScanRange(tbl, 0, 0, 10, nil, func(*Record) bool { return true })
	if !errors.Is(err, storage.ErrUnordered) {
		t.Fatalf("err = %v, want ErrUnordered", err)
	}
	tx.Abort()
}

// TestSVRangePhantomBlocks: a serializable (or repeatable-read) range scan
// holds a shared range lock to commit, so a concurrent insert into the
// scanned range blocks until the scanner completes — the 1V engine's range
// analogue of its phantom-safe bucket locks.
func TestSVRangePhantomBlocks(t *testing.T) {
	e, tbl := newOrderedTestEngine(t, 2*time.Second)
	for k := uint64(0); k < 30; k += 2 {
		e.LoadRow(tbl, testPayload(k, k))
	}

	t1 := e.Begin(iso.Serializable)
	if got := collectRange(t, t1, tbl, 10, 20); len(got) != 6 {
		t.Fatalf("initial scan: %v", got)
	}

	inserted := make(chan error, 1)
	go func() {
		t2 := e.Begin(iso.ReadCommitted)
		if err := t2.Insert(tbl, testPayload(15, 999)); err != nil {
			t2.Abort()
			inserted <- err
			return
		}
		inserted <- t2.Commit()
	}()

	select {
	case err := <-inserted:
		t.Fatalf("insert into locked range finished early (%v)", err)
	case <-time.After(50 * time.Millisecond):
		// Blocked on the scanner's shared range lock, as required.
	}

	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-inserted:
		if err != nil {
			t.Fatalf("insert failed after scanner release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("insert still blocked after scanner committed")
	}

	t3 := e.Begin(iso.ReadCommitted)
	if got := collectRange(t, t3, tbl, 10, 20); len(got) != 7 {
		t.Fatalf("after insert: %v", got)
	}
	t3.Commit()
}

// TestSVRangeLockTimeout: an insert blocked by a long-held range lock times
// out (the engine's deadlock-breaking discipline applies to range locks).
func TestSVRangeLockTimeout(t *testing.T) {
	e, tbl := newOrderedTestEngine(t, 30*time.Millisecond)
	e.LoadRow(tbl, testPayload(10, 10))
	t1 := e.Begin(iso.Serializable)
	_ = collectRange(t, t1, tbl, 0, 20)
	t2 := e.Begin(iso.ReadCommitted)
	err := t2.Insert(tbl, testPayload(15, 1))
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	t2.Abort()
	t1.Commit()
}

// TestSVRangeRelockHoldsOneEntry: a serializable transaction that reads the
// same ordered key again and again holds one range entry for it, not one
// per read — every extra entry would lengthen other transactions' conflict
// scans on the index and its release at commit. The one entry still
// excludes a writer of the key.
func TestSVRangeRelockHoldsOneEntry(t *testing.T) {
	e, tbl := newOrderedTestEngine(t, 30*time.Millisecond)
	e.LoadRow(tbl, testPayload(10, 10))
	t1 := e.Begin(iso.Serializable)
	for i := 0; i < 1000; i++ {
		if _, ok, err := t1.Lookup(tbl, 0, 10, nil); err != nil || !ok {
			t.Fatalf("Lookup %d: ok=%v err=%v", i, ok, err)
		}
	}
	if n := len(t1.heldRanges); n != 1 {
		t.Fatalf("%d range entries held after 1000 reads of one key, want 1", n)
	}
	t2 := e.Begin(iso.ReadCommitted)
	if err := t2.Insert(tbl, testPayload(10, 1)); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("writer of a read-locked key: err = %v, want ErrLockTimeout", err)
	}
	t2.Abort()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSVRangeCursorStabilityRC: at read committed the range lock is released
// when the scan ends, so a subsequent insert does not block.
func TestSVRangeCursorStabilityRC(t *testing.T) {
	e, tbl := newOrderedTestEngine(t, 100*time.Millisecond)
	e.LoadRow(tbl, testPayload(10, 10))
	t1 := e.Begin(iso.ReadCommitted)
	_ = collectRange(t, t1, tbl, 0, 20)
	// t1 is still open but holds no range lock.
	t2 := e.Begin(iso.ReadCommitted)
	if err := t2.Insert(tbl, testPayload(15, 1)); err != nil {
		t.Fatalf("insert blocked by a cursor-stability scan: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	t1.Commit()
}

// TestSVReadOnlyFastLane: BeginReadOnly draws neither the transaction-ID
// sequence nor the end sequence, mutations fail, and reads are stable.
func TestSVReadOnlyFastLane(t *testing.T) {
	e, tbl := newOrderedTestEngine(t, time.Second)
	for k := uint64(0); k < 10; k++ {
		e.LoadRow(tbl, testPayload(k, k))
	}
	txBefore, endBefore := e.Counters()

	ro := e.BeginReadOnly()
	if !ro.ReadOnly() {
		t.Fatal("not read-only")
	}
	if got := collectRange(t, ro, tbl, 0, 9); len(got) != 10 {
		t.Fatalf("scan: %v", got)
	}
	if err := ro.Insert(tbl, testPayload(99, 1)); !errors.Is(err, ErrReadOnlyTx) {
		t.Fatalf("Insert = %v, want ErrReadOnlyTx", err)
	}
	if _, err := ro.UpdateWhere(tbl, 0, 1, nil, func(b []byte) []byte { return b }); !errors.Is(err, ErrReadOnlyTx) {
		t.Fatalf("UpdateWhere = %v, want ErrReadOnlyTx", err)
	}
	if _, err := ro.DeleteWhere(tbl, 0, 1, nil); !errors.Is(err, ErrReadOnlyTx) {
		t.Fatalf("DeleteWhere = %v, want ErrReadOnlyTx", err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}

	txAfter, endAfter := e.Counters()
	if txAfter != txBefore || endAfter != endBefore {
		t.Fatalf("read-only txn advanced shared counters: tx %d->%d end %d->%d",
			txBefore, txAfter, endBefore, endAfter)
	}
	s := e.Stats()
	if s.ReadOnlyBegins != 1 || s.FastCommits != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// Read stability: the fast lane holds read locks to commit.
	ro2 := e.BeginReadOnly()
	_ = collectRange(t, ro2, tbl, 0, 9)
	w := e.Begin(iso.ReadCommitted)
	blocked := make(chan error, 1)
	go func() {
		_, err := w.UpdateWhere(tbl, 0, 5, nil, func([]byte) []byte { return testPayload(5, 50) })
		if err != nil {
			w.Abort()
			blocked <- err
			return
		}
		blocked <- w.Commit()
	}()
	select {
	case err := <-blocked:
		t.Fatalf("writer finished (%v) under the reader's range lock", err)
	case <-time.After(50 * time.Millisecond):
	}
	ro2.Commit()
	if err := <-blocked; err != nil {
		t.Fatalf("writer failed after reader release: %v", err)
	}
}
