package mv

// TestFigure3ValidationOutcomes drives the four validation cases of
// Figure 3 end-to-end against a serializable optimistic transaction T:
//
//	V1: visible at T's start and end            -> reads pass, no phantom
//	V2: visible at start, replaced during T      -> read validation fails
//	V3: created and deleted during T's lifetime  -> invisible throughout, pass
//	V4: created during T, visible at end         -> phantom, validation fails

import (
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

func TestFigure3V1StableReadPasses(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	tx := e.Begin(Optimistic, Serializable)
	if v, ok := readVal(t, tx, tbl, 1); !ok || v != 10 {
		t.Fatal("read failed")
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("V1 case: commit = %v, want success", err)
	}
}

func TestFigure3V2InvalidatedReadFails(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	tx := e.Begin(Optimistic, Serializable)
	if _, ok := readVal(t, tx, tbl, 1); !ok {
		t.Fatal("read failed")
	}
	// V2 is replaced during T's lifetime.
	up := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, up, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, up)
	if err := tx.Commit(); err != ErrValidation {
		t.Fatalf("V2 case: commit = %v, want ErrValidation", err)
	}
}

func TestFigure3V3TransientVersionPasses(t *testing.T) {
	e, tbl := newTestEngine(t)
	tx := e.Begin(Optimistic, Serializable)
	// T scans for key 2: nothing there.
	if _, ok := readVal(t, tx, tbl, 2); ok {
		t.Fatal("unexpected row")
	}
	// V3 comes into existence and disappears again during T's lifetime.
	ins := e.Begin(Optimistic, ReadCommitted)
	if err := ins.Insert(tbl, testPayload(2, 22)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, ins)
	del := e.Begin(Optimistic, ReadCommitted)
	if n, err := del.DeleteWhere(tbl, 0, 2, nil); err != nil || n != 1 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	mustCommit(t, del)
	// V3 is not visible at T's end, so it is not a phantom.
	if err := tx.Commit(); err != nil {
		t.Fatalf("V3 case: commit = %v, want success", err)
	}
}

func TestFigure3V4PhantomFails(t *testing.T) {
	e, tbl := newTestEngine(t)
	tx := e.Begin(Optimistic, Serializable)
	if _, ok := readVal(t, tx, tbl, 2); ok {
		t.Fatal("unexpected row")
	}
	// V4 comes into existence during T and survives to T's end.
	ins := e.Begin(Optimistic, ReadCommitted)
	if err := ins.Insert(tbl, testPayload(2, 22)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, ins)
	if err := tx.Commit(); err != ErrValidation {
		t.Fatalf("V4 case: commit = %v, want ErrValidation (phantom)", err)
	}
}

// Repeatable read validates reads but not scans: V4's phantom is admitted.
func TestRepeatableReadAdmitsPhantoms(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	tx := e.Begin(Optimistic, RepeatableRead)
	if _, ok := readVal(t, tx, tbl, 1); !ok {
		t.Fatal("read failed")
	}
	if _, ok := readVal(t, tx, tbl, 2); ok {
		t.Fatal("unexpected row")
	}
	ins := e.Begin(Optimistic, ReadCommitted)
	if err := ins.Insert(tbl, testPayload(2, 22)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, ins)
	// The phantom does not fail repeatable read; the stable read of key 1
	// still validates.
	if err := tx.Commit(); err != nil {
		t.Fatalf("repeatable read commit = %v, want success", err)
	}
}

// A serializable transaction whose own updates replaced its reads still
// validates: its write locks prove no other transaction intervened.
func TestValidationOwnUpdatesPass(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	tx := e.Begin(Optimistic, Serializable)
	if _, ok := readVal(t, tx, tbl, 1); !ok {
		t.Fatal("read failed")
	}
	if err := writeVal(t, tx, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after read-then-own-update = %v", err)
	}
}

// Own inserts are not phantoms for the inserting transaction.
func TestValidationOwnInsertNotPhantom(t *testing.T) {
	e, tbl := newTestEngine(t)
	tx := e.Begin(Optimistic, Serializable)
	if _, ok := readVal(t, tx, tbl, 5); ok {
		t.Fatal("unexpected row")
	}
	if err := tx.Insert(tbl, testPayload(5, 50)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit = %v; own insert flagged as phantom", err)
	}
}

// A version deleted during T whose deleter aborts is still visible at T's
// end: read validation passes (Table 2's Aborted row).
func TestValidationSurvivesAbortedUpdater(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	tx := e.Begin(Optimistic, Serializable)
	if _, ok := readVal(t, tx, tbl, 1); !ok {
		t.Fatal("read failed")
	}
	up := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, up, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	if err := up.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit = %v, want success after updater aborted", err)
	}
}

// TestRescanSkipsPreBeginRows: rows committed before T began cannot be
// phantoms, so the rescan passes them without consulting their End words —
// even when an active updater holds one and a preparing deleter, whose end
// timestamp precedes T's, holds another. The old double visibility test
// took a commit dependency on the preparing writer (a speculative ignore)
// and made T's commit wait for it.
func TestRescanSkipsPreBeginRows(t *testing.T) {
	gate := newGateWriter()
	log := wal.Open(wal.Config{Sink: gate, Durability: wal.Flush, BatchSize: 1})
	e := NewEngine(Config{DeadlockInterval: -1, Log: log})
	t.Cleanup(func() {
		gate.Release()
		e.Close()
	})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Ordered: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10; k++ {
		e.LoadRow(tbl, testPayload(k, k))
	}

	// T scans [0, 9] but stops after the first row, so rows 1..9 are in its
	// rescan and not in its read set.
	tx := e.Begin(Optimistic, Serializable)
	if err := tx.ScanRange(tbl, 0, 0, 9, nil, func(*storage.Version) bool { return false }); err != nil {
		t.Fatal(err)
	}

	active := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, active, tbl, 5, 50); err != nil {
		t.Fatal(err)
	}
	// A delete: an update's new version would be a phantom of its own.
	prep := e.Begin(Optimistic, ReadCommitted)
	if n, err := prep.DeleteWhere(tbl, 0, 7, nil); err != nil || n != 1 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	prepDone := make(chan error, 1)
	go func() { prepDone <- prep.Commit() }()
	deadline := time.Now().Add(5 * time.Second)
	for prep.T.State() != txn.Preparing {
		if time.Now().After(deadline) {
			t.Fatal("writer never reached Preparing")
		}
		time.Sleep(100 * time.Microsecond)
	}

	spec := e.Stats().SpeculativeReads
	done := make(chan error, 1)
	go func() { done <- tx.Commit() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit = %v, want success", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit waited on the preparing writer of a pre-begin row")
	}
	if got := e.Stats().SpeculativeReads; got != spec {
		t.Fatalf("SpeculativeReads %d -> %d: the rescan took a commit dependency", spec, got)
	}

	gate.Release()
	if err := <-prepDone; err != nil {
		t.Fatalf("preparing writer: %v", err)
	}
	if err := active.Abort(); err != nil {
		t.Fatal(err)
	}
}
