package sv

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/iso"
	"repro/internal/storage"
)

func testPayload(key, val uint64) []byte {
	p := make([]byte, 16)
	binary.LittleEndian.PutUint64(p, key)
	binary.LittleEndian.PutUint64(p[8:], val)
	return p
}

func payloadKey(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }
func payloadVal(p []byte) uint64 { return binary.LittleEndian.Uint64(p[8:]) }

func newTestEngine(t *testing.T, timeout time.Duration) (*Engine, *Table) {
	t.Helper()
	e := NewEngine(Config{LockTimeout: timeout})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

func readVal(t *testing.T, tx *Tx, tbl *Table, key uint64) (uint64, bool) {
	t.Helper()
	r, ok, err := tx.Lookup(tbl, 0, key, nil)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if !ok {
		return 0, false
	}
	return payloadVal(r.Payload()), true
}

func TestInsertCommitRead(t *testing.T) {
	e, tbl := newTestEngine(t, 0)
	tx := e.Begin(iso.ReadCommitted)
	if err := tx.Insert(tbl, testPayload(1, 100)); err != nil {
		t.Fatal(err)
	}
	if v, ok := readVal(t, tx, tbl, 1); !ok || v != 100 {
		t.Fatalf("self-read = %d,%v", v, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin(iso.ReadCommitted)
	if v, ok := readVal(t, tx2, tbl, 1); !ok || v != 100 {
		t.Fatalf("read = %d,%v", v, ok)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestUncommittedInsertBlocksReaders(t *testing.T) {
	e, tbl := newTestEngine(t, 10*time.Millisecond)
	tx := e.Begin(iso.ReadCommitted)
	if err := tx.Insert(tbl, testPayload(1, 100)); err != nil {
		t.Fatal(err)
	}
	// Another transaction reading the same bucket times out: X lock held.
	r := e.Begin(iso.ReadCommitted)
	if _, _, err := r.Lookup(tbl, 0, 1, nil); err != ErrLockTimeout {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	r.Abort()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateInPlace(t *testing.T) {
	e, tbl := newTestEngine(t, 0)
	e.LoadRow(tbl, testPayload(1, 10))
	tx := e.Begin(iso.ReadCommitted)
	n, err := tx.UpdateWhere(tbl, 0, 1, nil, func(old []byte) []byte {
		return testPayload(1, payloadVal(old)+5)
	})
	if err != nil || n != 1 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin(iso.ReadCommitted)
	if v, _ := readVal(t, tx2, tbl, 1); v != 15 {
		t.Fatalf("value = %d, want 15", v)
	}
	tx2.Commit()
}

func TestAbortUndoesEverything(t *testing.T) {
	e, tbl := newTestEngine(t, 0)
	e.LoadRow(tbl, testPayload(1, 10))
	e.LoadRow(tbl, testPayload(2, 20))
	tx := e.Begin(iso.ReadCommitted)
	if _, err := tx.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte { return testPayload(1, 99) }); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteWhere(tbl, 0, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, testPayload(3, 30)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin(iso.ReadCommitted)
	if v, _ := readVal(t, tx2, tbl, 1); v != 10 {
		t.Fatalf("update not undone: %d", v)
	}
	if v, ok := readVal(t, tx2, tbl, 2); !ok || v != 20 {
		t.Fatalf("delete not undone: %d,%v", v, ok)
	}
	if _, ok := readVal(t, tx2, tbl, 3); ok {
		t.Fatal("insert not undone")
	}
	tx2.Commit()
}

func TestDeleteCommitUnlinks(t *testing.T) {
	e, tbl := newTestEngine(t, 0)
	e.LoadRow(tbl, testPayload(1, 10))
	tx := e.Begin(iso.ReadCommitted)
	if n, err := tx.DeleteWhere(tbl, 0, 1, nil); err != nil || n != 1 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	// Invisible to self after delete.
	if _, ok := readVal(t, tx, tbl, 1); ok {
		t.Fatal("deleted row visible to deleter")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin(iso.ReadCommitted)
	if _, ok := readVal(t, tx2, tbl, 1); ok {
		t.Fatal("deleted row visible after commit")
	}
	tx2.Commit()
	// Physically unlinked.
	ix := tbl.indexes[0].(*hashIndex)
	if b, _ := ix.bucket(1); b.head != nil && b.head.link(0).key == 1 {
		t.Fatal("record still linked after delete commit")
	}
}

func TestReadCommittedCursorStability(t *testing.T) {
	e, tbl := newTestEngine(t, 50*time.Millisecond)
	e.LoadRow(tbl, testPayload(1, 10))
	r := e.Begin(iso.ReadCommitted)
	if v, _ := readVal(t, r, tbl, 1); v != 10 {
		t.Fatal("read failed")
	}
	// RC released its lock: a writer can update concurrently.
	w := e.Begin(iso.ReadCommitted)
	if _, err := w.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte { return testPayload(1, 20) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// RC sees the new value on re-read (non-repeatable, by design).
	if v, _ := readVal(t, r, tbl, 1); v != 20 {
		t.Fatalf("re-read = %d, want 20", v)
	}
	r.Commit()
}

func TestRepeatableReadBlocksWriter(t *testing.T) {
	e, tbl := newTestEngine(t, 10*time.Millisecond)
	e.LoadRow(tbl, testPayload(1, 10))
	r := e.Begin(iso.RepeatableRead)
	if v, _ := readVal(t, r, tbl, 1); v != 10 {
		t.Fatal("read failed")
	}
	// Writer blocks on the held S lock and times out.
	w := e.Begin(iso.ReadCommitted)
	_, err := w.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte { return testPayload(1, 20) })
	if err != ErrLockTimeout {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	w.Abort()
	r.Commit()
	// After the reader commits, writers proceed.
	w2 := e.Begin(iso.ReadCommitted)
	if _, err := w2.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte { return testPayload(1, 20) }); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSerializablePhantomProtection(t *testing.T) {
	e, tbl := newTestEngine(t, 10*time.Millisecond)
	ser := e.Begin(iso.Serializable)
	// Scan an empty hash key: the bucket lock is held to commit.
	if _, ok := readVal(t, ser, tbl, 7); ok {
		t.Fatal("unexpected row")
	}
	// An insert into the same bucket blocks (phantom protection) and times
	// out.
	ins := e.Begin(iso.ReadCommitted)
	if err := ins.Insert(tbl, testPayload(7, 70)); err != ErrLockTimeout {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	ins.Abort()
	ser.Commit()
}

func TestLockUpgrade(t *testing.T) {
	e, tbl := newTestEngine(t, 0)
	e.LoadRow(tbl, testPayload(1, 10))
	tx := e.Begin(iso.RepeatableRead)
	// Read (S lock) then update (upgrade to X) in the same transaction.
	if v, _ := readVal(t, tx, tbl, 1); v != 10 {
		t.Fatal("read failed")
	}
	if _, err := tx.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte { return testPayload(1, 11) }); err != nil {
		t.Fatalf("upgrade failed: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockBrokenByTimeout(t *testing.T) {
	e, tbl := newTestEngine(t, 20*time.Millisecond)
	e.LoadRow(tbl, testPayload(1, 10))
	e.LoadRow(tbl, testPayload(2, 20))
	t1 := e.Begin(iso.ReadCommitted)
	t2 := e.Begin(iso.ReadCommitted)
	// t1 X-locks key 1; t2 X-locks key 2.
	if _, err := t1.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte { return testPayload(1, 11) }); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.UpdateWhere(tbl, 0, 2, nil, func([]byte) []byte { return testPayload(2, 21) }); err != nil {
		t.Fatal(err)
	}
	// Now they each try the other's key: a deadlock, broken by timeout.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = t1.UpdateWhere(tbl, 0, 2, nil, func([]byte) []byte { return testPayload(2, 12) })
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = t2.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte { return testPayload(1, 22) })
	}()
	wg.Wait()
	if errs[0] != ErrLockTimeout && errs[1] != ErrLockTimeout {
		t.Fatalf("no timeout: %v, %v", errs[0], errs[1])
	}
	t1.Abort()
	t2.Abort()
	if e.Stats().LockTimeouts == 0 {
		t.Fatal("timeout counter not bumped")
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	e := NewEngine(Config{})
	valKey := func(p []byte) uint64 { return payloadVal(p) }
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "t2",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Buckets: 64},
			{Name: "val", Key: valKey, Buckets: 64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.LoadRow(tbl, testPayload(1, 100))
	tx := e.Begin(iso.ReadCommitted)
	r, ok, err := tx.Lookup(tbl, 1, 100, nil)
	if err != nil || !ok || payloadKey(r.Payload()) != 1 {
		t.Fatalf("secondary lookup: ok=%v err=%v", ok, err)
	}
	// Update through the secondary index changing the secondary key:
	// the record must relocate.
	if _, err := tx.UpdateWhere(tbl, 1, 100, nil, func([]byte) []byte { return testPayload(1, 200) }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin(iso.ReadCommitted)
	if _, ok, _ := tx2.Lookup(tbl, 1, 100, nil); ok {
		t.Fatal("record still reachable via old secondary key")
	}
	if r, ok, _ := tx2.Lookup(tbl, 1, 200, nil); !ok || payloadKey(r.Payload()) != 1 {
		t.Fatal("record not reachable via new secondary key")
	}
	tx2.Commit()
}

func TestAbortRestoresRelocatedRecord(t *testing.T) {
	e := NewEngine(Config{})
	valKey := func(p []byte) uint64 { return payloadVal(p) }
	tbl, _ := e.CreateTable(storage.TableSpec{
		Name: "t3",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Buckets: 64},
			{Name: "val", Key: valKey, Buckets: 64},
		},
	})
	e.LoadRow(tbl, testPayload(1, 100))
	tx := e.Begin(iso.ReadCommitted)
	if _, err := tx.UpdateWhere(tbl, 1, 100, nil, func([]byte) []byte { return testPayload(1, 200) }); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	tx2 := e.Begin(iso.ReadCommitted)
	if r, ok, _ := tx2.Lookup(tbl, 1, 100, nil); !ok || payloadVal(r.Payload()) != 100 {
		t.Fatal("record not restored to old secondary key after abort")
	}
	if _, ok, _ := tx2.Lookup(tbl, 1, 200, nil); ok {
		t.Fatal("record reachable via aborted secondary key")
	}
	tx2.Commit()
}

func TestConcurrentDisjointWriters(t *testing.T) {
	e, tbl := newTestEngine(t, 0)
	const n = 64
	for i := 0; i < n; i++ {
		e.LoadRow(tbl, testPayload(uint64(i), 0))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				tx := e.Begin(iso.ReadCommitted)
				key := uint64(i)
				if _, err := tx.UpdateWhere(tbl, 0, key, nil, func(old []byte) []byte {
					return testPayload(key, payloadVal(old)+1)
				}); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	tx := e.Begin(iso.ReadCommitted)
	for i := 0; i < n; i++ {
		if v, _ := readVal(t, tx, tbl, uint64(i)); v != 1 {
			t.Fatalf("key %d = %d, want 1", i, v)
		}
	}
	tx.Commit()
}

// A transaction holding more locks than heldScanMax finds its entries
// through the map index: re-locking and upgrading early and late keys must
// land on the existing entries, and commit must release every one of them.
func TestHeldLockIndexPastScanLimit(t *testing.T) {
	e, tbl := newTestEngine(t, 20*time.Millisecond)
	const n = 4 * heldScanMax
	load := e.Begin(iso.ReadCommitted)
	for k := uint64(0); k < n; k++ {
		if err := load.Insert(tbl, testPayload(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := e.Begin(iso.RepeatableRead)
	for round := 0; round < 2; round++ {
		for k := uint64(0); k < n; k++ {
			if v, ok := readVal(t, tx, tbl, k); !ok || v != k {
				t.Fatalf("read %d = %d,%v", k, v, ok)
			}
		}
	}
	if len(tx.held) > n || tx.heldIdx == nil {
		t.Fatalf("held=%d entries (index built: %v) for %d distinct keys", len(tx.held), tx.heldIdx != nil, n)
	}
	for _, k := range []uint64{0, heldScanMax, n - 1} {
		if _, err := tx.UpdateWhere(tbl, 0, k, nil, func(old []byte) []byte { return testPayload(k, k+1000) }); err != nil {
			t.Fatalf("upgrade %d: %v", k, err)
		}
	}
	if len(tx.held) > n {
		t.Fatalf("upgrades added entries: held=%d", len(tx.held))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	after := e.Begin(iso.RepeatableRead)
	for k := uint64(0); k < n; k++ {
		if _, err := after.UpdateWhere(tbl, 0, k, nil, func(old []byte) []byte { return old }); err != nil {
			t.Fatalf("key %d still locked after commit: %v", k, err)
		}
	}
	if v, _ := readVal(t, after, tbl, heldScanMax); v != heldScanMax+1000 {
		t.Fatalf("upgraded write lost: %d", v)
	}
	if err := after.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A 1V capture S-locks every hash bucket and holds them to the end; with a
// linear held-lock lookup that was quadratic in buckets (over four minutes
// at 1 M). It must be seconds.
func TestCaptureLinearInBuckets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 1 M-bucket index")
	}
	e := NewEngine(Config{})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 1000
	for k := uint64(0); k < rows; k++ {
		e.LoadRow(tbl, testPayload(k, k))
	}
	start := time.Now()
	got := 0
	if _, err := e.Capture([]*Table{tbl}, func(*Table, uint64, []byte) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != rows {
		t.Fatalf("captured %d rows, want %d", got, rows)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("capture over 1 M buckets took %v", d)
	}
}

// TestCaptureOutwaitsWriter: a capture blocked on writer W's exclusive lock
// holds a shared lock that W then asks to upgrade. W's lock timeout breaks the
// cycle, not the capture's: W gets ErrLockTimeout and aborts, and the
// capture goes on to return every original row.
func TestCaptureOutwaitsWriter(t *testing.T) {
	const n = 16
	e := NewEngine(Config{LockTimeout: 20 * time.Millisecond})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: n}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := tbl.hashIxs[0]
	var keyAt [n]uint64
	for k := uint64(0); k < n; k++ {
		e.LoadRow(tbl, testPayload(k, k))
		keyAt[ix.slots.Slot(k)] = k
	}
	if ix.slots.Slot(keyAt[0]) != 0 || ix.slots.Slot(keyAt[n-1]) != n-1 {
		t.Fatal("no key of 0..n-1 lands in bucket 0 or n-1")
	}
	bump := func(old []byte) []byte { return testPayload(payloadKey(old), payloadVal(old)+100) }

	w := e.Begin(iso.Serializable)
	if _, ok := readVal(t, w, tbl, keyAt[0]); !ok {
		t.Fatal("bucket 0's row is missing")
	}
	if _, err := w.UpdateWhere(tbl, 0, keyAt[n-1], nil, bump); err != nil {
		t.Fatal(err)
	}

	got := make(map[uint64]uint64)
	capErr := make(chan error, 1)
	go func() {
		_, err := e.Capture([]*Table{tbl}, func(_ *Table, key uint64, p []byte) error {
			got[key] = payloadVal(p)
			return nil
		})
		capErr <- err
	}()
	// The capture has shared-locked buckets 0..n-2 once it waits on n-1.
	last, _ := ix.bucketAt(n - 1)
	for last.lock.state.Load()&waitBit == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	_, err = w.UpdateWhere(tbl, 0, keyAt[0], nil, bump)
	w.Abort()
	if err != ErrLockTimeout {
		t.Fatalf("W's upgrade of bucket 0 = %v, want ErrLockTimeout", err)
	}
	if err := <-capErr; err != nil {
		t.Fatalf("capture = %v, want it to outwait W", err)
	}
	if len(got) != n {
		t.Fatalf("captured %d rows, want %d", len(got), n)
	}
	for k, v := range got {
		if v != k {
			t.Fatalf("captured key %d = %d, want the original %d", k, v, k)
		}
	}
}
