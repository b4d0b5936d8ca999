package sv

import (
	"testing"
	"time"

	"repro/internal/iso"
	"repro/internal/storage"
)

// checkEmptyTx fails unless tx holds no bookkeeping from an earlier
// transaction: every slice empty, and no stale entry left in its spare
// capacity for the pool to retain.
func checkEmptyTx(t *testing.T, tx *Tx) {
	t.Helper()
	if len(tx.held) != 0 || len(tx.heldRanges) != 0 || len(tx.undo) != 0 ||
		len(tx.writes) != 0 || len(tx.keyBuf) != 0 || len(tx.targets) != 0 {
		t.Fatalf("reissued Tx not empty: held %d, heldRanges %d, undo %d, writes %d, keyBuf %d, targets %d",
			len(tx.held), len(tx.heldRanges), len(tx.undo), len(tx.writes), len(tx.keyBuf), len(tx.targets))
	}
	if tx.heldIdx != nil {
		t.Fatal("reissued Tx keeps its heldIdx map")
	}
	for _, h := range tx.held[:cap(tx.held)] {
		if h != (heldLock{}) {
			t.Fatalf("spare held entry %+v retained", h)
		}
	}
	for _, h := range tx.heldRanges[:cap(tx.heldRanges)] {
		if h != (storage.RangeHold{}) {
			t.Fatalf("spare range entry %+v retained", h)
		}
	}
	for _, u := range tx.undo[:cap(tx.undo)] {
		if u.t != nil || u.r != nil || u.oldPayload != nil || u.oldKeys != nil {
			t.Fatal("spare undo entry retains a record")
		}
	}
	for _, w := range tx.writes[:cap(tx.writes)] {
		if w.Table != "" || w.Payload != nil {
			t.Fatal("spare redo entry retains a payload")
		}
	}
	for _, r := range tx.targets[:cap(tx.targets)] {
		if r != nil {
			t.Fatal("spare target retains a record")
		}
	}
}

// TestTxPoolDropsCaptureBuffers: a checkpoint capture holds one lock per
// hash bucket; the pooled Tx must not keep that buffer afterwards.
func TestTxPoolDropsCaptureBuffers(t *testing.T) {
	e := NewEngine(Config{})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		e.LoadRow(tbl, testPayload(k, k))
	}
	rows := 0
	if _, err := e.Capture([]*Table{tbl}, func(*Table, uint64, []byte) error { rows++; return nil }); err != nil {
		t.Fatal(err)
	}
	if rows != 100 {
		t.Fatalf("captured %d rows, want 100", rows)
	}
	tx := e.Begin(iso.Serializable)
	if cap(tx.held) > txKeepMax {
		t.Fatalf("Begin after Capture: cap(held) = %d, want <= %d", cap(tx.held), txKeepMax)
	}
	checkEmptyTx(t, tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTxPoolReuseIsClean: a transaction that built every kind of
// bookkeeping and then failed inside Update is aborted; the next Begin gets
// an empty Tx.
func TestTxPoolReuseIsClean(t *testing.T) {
	e := NewEngine(Config{LockTimeout: 5 * time.Millisecond})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "t",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Buckets: 1 << 10},
			{Name: "val", Key: payloadVal, Buckets: 1 << 10},
			{Name: "pk_ord", Key: payloadKey, Ordered: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.LoadRow(tbl, testPayload(1, 10))
	e.LoadRow(tbl, testPayload(3, 30))

	blocker := e.Begin(iso.ReadCommitted)
	if err := blocker.Insert(tbl, testPayload(2, 20)); err != nil {
		t.Fatal(err)
	}

	tx := e.Begin(iso.Serializable)
	for k := uint64(100); k < 100+2*heldScanMax; k++ { // outgrow the scan: heldIdx is built
		if _, _, err := tx.Lookup(tbl, 0, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tx.heldIdx == nil {
		t.Fatal("setup: heldIdx not built")
	}
	if _, _, err := tx.Lookup(tbl, 2, 3, nil); err != nil { // a range lock
		t.Fatal(err)
	}
	if n, err := tx.UpdateWhere(tbl, 0, 3, nil, func([]byte) []byte { return testPayload(3, 31) }); err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	// Moving row 1's val key to 20 needs the cover the blocker holds.
	_, err = tx.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte { return testPayload(1, 20) })
	if err != ErrLockTimeout {
		t.Fatalf("blocked update: err = %v, want ErrLockTimeout", err)
	}
	if len(tx.undo) == 0 || len(tx.writes) == 0 || len(tx.keyBuf) == 0 || len(tx.heldRanges) == 0 || cap(tx.targets) == 0 {
		t.Fatal("setup: bookkeeping not built")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := blocker.Abort(); err != nil {
		t.Fatal(err)
	}

	next := e.Begin(iso.ReadCommitted)
	checkEmptyTx(t, next)
	if v, _ := readVal(t, next, tbl, 3); v != 30 {
		t.Fatalf("row 3 = %d after abort, want 30", v)
	}
	if v, _ := readVal(t, next, tbl, 1); v != 10 {
		t.Fatalf("row 1 = %d after abort, want 10", v)
	}
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrTxDone {
		t.Fatalf("stale Commit: err = %v, want ErrTxDone", err)
	}
}

// TestUpdateWhereReentrantMut: a mut that calls back into its own Tx —
// another UpdateWhere and a Lookup — must not disturb the outer iteration.
func TestUpdateWhereReentrantMut(t *testing.T) {
	e := NewEngine(Config{})
	group := func(p []byte) uint64 { return payloadKey(p) / 10 }
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "t",
		Indexes: []storage.IndexSpec{
			{Name: "grp", Key: group, Buckets: 1 << 4},
			{Name: "pk", Key: payloadKey, Buckets: 1 << 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []uint64{0, 10} {
		for k := base; k < base+5; k++ {
			e.LoadRow(tbl, testPayload(k, 0))
		}
	}

	tx := e.Begin(iso.ReadCommitted)
	// Warm the Tx's target buffer, so the outer call below collects into a
	// buffer the nested call could reuse.
	if _, err := tx.UpdateWhere(tbl, 0, 1, nil, func(old []byte) []byte { return old }); err != nil {
		t.Fatal(err)
	}
	calls, nested := 0, 0
	n, err := tx.UpdateWhere(tbl, 0, 0, nil, func(old []byte) []byte {
		calls++
		if calls == 1 {
			var nestedErr error
			nested, nestedErr = tx.UpdateWhere(tbl, 0, 1, nil, func(old []byte) []byte {
				return testPayload(payloadKey(old), payloadVal(old)+1)
			})
			if nestedErr != nil {
				t.Fatal(nestedErr)
			}
		}
		if _, ok, err := tx.Lookup(tbl, 1, 12, nil); err != nil || !ok {
			t.Fatalf("nested lookup: ok=%v err=%v", ok, err)
		}
		return testPayload(payloadKey(old), payloadVal(old)+100)
	})
	if err != nil || n != 5 || nested != 5 || calls != 5 {
		t.Fatalf("outer n=%d nested n=%d calls=%d err=%v", n, nested, calls, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = e.Begin(iso.ReadCommitted)
	for k := uint64(0); k < 15; k++ {
		v, ok, err := tx.Lookup(tbl, 1, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if k%10 >= 5 {
			if ok {
				t.Fatalf("row %d exists", k)
			}
			continue
		}
		want := uint64(100) // group 0: the outer mut
		if k >= 10 {
			want = 1 // group 1: the nested mut
		}
		if !ok || payloadVal(v.Payload()) != want {
			t.Fatalf("row %d = %v,%v, want %d", k, v, ok, want)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
