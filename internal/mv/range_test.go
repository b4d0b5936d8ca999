package mv

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gc"
	"repro/internal/storage"
	"repro/internal/txn"
)

func newOrderedTestEngine(t *testing.T) (*Engine, *storage.Table) {
	t.Helper()
	e := NewEngine(Config{DeadlockInterval: -1})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "t",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Ordered: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, tbl
}

// collectRange runs a range scan and returns the visible keys in scan order.
func collectRange(t *testing.T, tx *Tx, tbl *storage.Table, lo, hi uint64) []uint64 {
	t.Helper()
	var keys []uint64
	err := tx.ScanRange(tbl, 0, lo, hi, nil, func(v *storage.Version) bool {
		keys = append(keys, payloadKey(v.Payload()))
		return true
	})
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	return keys
}

func TestScanRangeAllSchemesAndLevels(t *testing.T) {
	for _, scheme := range []Scheme{Optimistic, Pessimistic} {
		for _, level := range []Isolation{ReadCommitted, SnapshotIsolation, RepeatableRead, Serializable} {
			t.Run(scheme.String()+"/"+level.String(), func(t *testing.T) {
				e, tbl := newOrderedTestEngine(t)
				for k := uint64(0); k < 100; k++ {
					e.LoadRow(tbl, testPayload(k, k*10))
				}
				tx := e.Begin(scheme, level)
				keys := collectRange(t, tx, tbl, 10, 19)
				if len(keys) != 10 {
					t.Fatalf("got %d keys, want 10: %v", len(keys), keys)
				}
				for i, k := range keys {
					if k != uint64(10+i) {
						t.Fatalf("keys out of order: %v", keys)
					}
				}
				// Early stop.
				n := 0
				if err := tx.ScanRange(tbl, 0, 0, 99, nil, func(*storage.Version) bool {
					n++
					return n < 3
				}); err != nil {
					t.Fatal(err)
				}
				if n != 3 {
					t.Fatalf("early stop visited %d", n)
				}
				mustCommit(t, tx)
			})
		}
	}
}

func TestScanRangeUnordered(t *testing.T) {
	e, tbl := newTestEngine(t) // hash index
	tx := e.Begin(Optimistic, ReadCommitted)
	err := tx.ScanRange(tbl, 0, 0, 10, nil, func(*storage.Version) bool { return true })
	if !errors.Is(err, storage.ErrUnordered) {
		t.Fatalf("err = %v, want ErrUnordered", err)
	}
	tx.Abort()
}

// TestRangePhantomOptimisticAbort: an optimistic serializable range scan
// must fail validation when a concurrent transaction commits an insert
// inside the scanned range during the scanner's lifetime (Section 3.2's
// phantom rescan, generalized to ranges).
func TestRangePhantomOptimisticAbort(t *testing.T) {
	e, tbl := newOrderedTestEngine(t)
	for k := uint64(0); k < 30; k += 2 {
		e.LoadRow(tbl, testPayload(k, k))
	}

	t1 := e.Begin(Optimistic, Serializable)
	if got := collectRange(t, t1, tbl, 10, 20); len(got) != 6 {
		t.Fatalf("initial scan saw %v", got)
	}

	// A concurrent insert of a brand-new key (15) inside the range commits.
	t2 := e.Begin(Optimistic, ReadCommitted)
	if err := t2.Insert(tbl, testPayload(15, 999)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, t2)

	if err := t1.Commit(); !errors.Is(err, ErrValidation) {
		t.Fatalf("commit = %v, want ErrValidation (phantom)", err)
	}

	// Control: an insert outside the scanned range does not abort the scan.
	t3 := e.Begin(Optimistic, Serializable)
	_ = collectRange(t, t3, tbl, 10, 20)
	t4 := e.Begin(Optimistic, ReadCommitted)
	if err := t4.Insert(tbl, testPayload(55, 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, t4)
	mustCommit(t, t3)
}

// TestRangePhantomPessimisticBlocks: a pessimistic serializable range scan
// takes a range lock; a concurrent insert into the range may proceed eagerly
// but its commit must wait until the scanner completes (Section 4.2.2's
// bucket-lock protocol, predicate-shaped).
func TestRangePhantomPessimisticBlocks(t *testing.T) {
	e, tbl := newOrderedTestEngine(t)
	for k := uint64(0); k < 30; k += 2 {
		e.LoadRow(tbl, testPayload(k, k))
	}

	t1 := e.Begin(Pessimistic, Serializable)
	if got := collectRange(t, t1, tbl, 10, 20); len(got) != 6 {
		t.Fatalf("initial scan saw %v", got)
	}

	t2 := e.Begin(Pessimistic, ReadCommitted)
	if err := t2.Insert(tbl, testPayload(15, 999)); err != nil {
		t.Fatal(err)
	}

	committed := make(chan error, 1)
	go func() { committed <- t2.Commit() }()

	select {
	case err := <-committed:
		t.Fatalf("inserter committed (%v) while the range was locked", err)
	case <-time.After(50 * time.Millisecond):
		// Blocked, as required.
	}

	mustCommit(t, t1)
	select {
	case err := <-committed:
		if err != nil {
			t.Fatalf("inserter failed after scanner finished: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("inserter still blocked after the scanner committed")
	}

	// The phantom is now visible to new transactions.
	t3 := e.Begin(Pessimistic, ReadCommitted)
	if got := collectRange(t, t3, tbl, 10, 20); len(got) != 7 {
		t.Fatalf("after insert: %v", got)
	}
	mustCommit(t, t3)
}

// TestRangeReadStability: repeatable-read range scans stabilize every row
// read — optimistic scans validate, pessimistic scans read-lock — so a
// concurrent update of a scanned row either fails the scanner's validation
// (MV/O) or waits for its locks (MV/L).
func TestRangeReadStability(t *testing.T) {
	t.Run("MVO", func(t *testing.T) {
		e, tbl := newOrderedTestEngine(t)
		for k := uint64(0); k < 10; k++ {
			e.LoadRow(tbl, testPayload(k, k))
		}
		t1 := e.Begin(Optimistic, RepeatableRead)
		_ = collectRange(t, t1, tbl, 0, 9)
		t2 := e.Begin(Optimistic, ReadCommitted)
		if err := writeVal(t, t2, tbl, 5, 500); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, t2)
		if err := t1.Commit(); !errors.Is(err, ErrValidation) {
			t.Fatalf("commit = %v, want ErrValidation (read instability)", err)
		}
	})
	t.Run("MVL", func(t *testing.T) {
		e, tbl := newOrderedTestEngine(t)
		for k := uint64(0); k < 10; k++ {
			e.LoadRow(tbl, testPayload(k, k))
		}
		t1 := e.Begin(Pessimistic, RepeatableRead)
		_ = collectRange(t, t1, tbl, 0, 9) // read locks every latest version
		t2 := e.Begin(Pessimistic, ReadCommitted)
		if err := writeVal(t, t2, tbl, 5, 500); err != nil {
			t.Fatal(err) // eager update allowed; commit must wait
		}
		committed := make(chan error, 1)
		go func() { committed <- t2.Commit() }()
		select {
		case err := <-committed:
			t.Fatalf("updater committed (%v) under a read lock", err)
		case <-time.After(50 * time.Millisecond):
		}
		mustCommit(t, t1)
		if err := <-committed; err != nil {
			t.Fatalf("updater failed after reader finished: %v", err)
		}
	})
}

// TestOrderedRecycleStress hammers an ordered table with point updates,
// inserts of new keys, range scans and cooperative GC, under both schemes,
// with self-verifying payloads. Run with -race: it exercises skip-list
// publication, node-chain recycling and range-scan visibility concurrently.
func TestOrderedRecycleStress(t *testing.T) {
	const (
		baseRows = 64
		workers  = 8
		iters    = 2000
	)
	e := NewEngine(Config{GCEvery: 1, GCQuota: 128, DeadlockInterval: -1})
	defer e.Close()
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "hot",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Ordered: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < baseRows; k++ {
		e.LoadRow(tbl, stressRow(k, k))
	}

	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for i := 0; i < iters; i++ {
				scheme := Optimistic
				if w%2 == 0 {
					scheme = Pessimistic
				}
				switch rng.Intn(4) {
				case 0: // serializable range scan
					tx := e.Begin(scheme, Serializable)
					lo := rng.Uint64() % baseRows
					err := tx.ScanRange(tbl, 0, lo, lo+8, nil, func(v *storage.Version) bool {
						if !stressRowOK(v.Payload()) {
							bad.Add(1)
						}
						return true
					})
					if err != nil {
						tx.Abort()
						continue
					}
					_ = tx.Commit()
				case 1: // snapshot range scan on the read-only fast lane
					tx := e.BeginReadOnly()
					err := tx.ScanRange(tbl, 0, 0, baseRows+16, nil, func(v *storage.Version) bool {
						if !stressRowOK(v.Payload()) {
							bad.Add(1)
						}
						return true
					})
					if err != nil {
						tx.Abort()
						continue
					}
					_ = tx.Commit()
				case 2: // point update (new version into an existing node)
					tx := e.Begin(scheme, ReadCommitted)
					k := rng.Uint64() % baseRows
					if _, err := tx.UpdateWhere(tbl, 0, k, nil, func(old []byte) []byte {
						return stressRow(k, rng.Uint64())
					}); err != nil {
						tx.Abort()
						continue
					}
					_ = tx.Commit()
				case 3: // insert+delete of a transient key (new skip node)
					tx := e.Begin(scheme, ReadCommitted)
					k := baseRows + rng.Uint64()%16
					if err := tx.Insert(tbl, stressRow(k, k)); err != nil {
						tx.Abort()
						continue
					}
					if err := tx.Commit(); err != nil {
						continue
					}
					tx = e.Begin(scheme, ReadCommitted)
					if _, err := tx.DeleteWhere(tbl, 0, k, nil); err != nil {
						tx.Abort()
						continue
					}
					_ = tx.Commit()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d corrupted payloads observed", n)
	}
	// Survivors must still verify.
	tx := e.BeginReadOnly()
	err = tx.ScanRange(tbl, 0, 0, baseRows+16, nil, func(v *storage.Version) bool {
		if !stressRowOK(v.Payload()) {
			t.Error("corrupt survivor")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	stats := e.Stats()
	if stats.VersionsRecycled == 0 {
		t.Log("warning: no versions recycled during stress (pool not exercised)")
	}
}

// TestReaderPinOverflow: the self-sized pin table overflows into the
// registered fallback once every slot is pinned, and recovers when slots free
// up. It also pins the invariant commit and recycling rely on: a
// transaction is in the table exactly when its ID is not txn.Anonymous.
func TestReaderPinOverflow(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1})
	defer e.Close()
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Ordered: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.LoadRow(tbl, testPayload(1, 1))

	total := e.pins.Slots()
	if total < gc.DefaultPinSlots {
		t.Fatalf("pin table capacity %d below the documented floor %d", total, gc.DefaultPinSlots)
	}
	readers := make([]*Tx, 0, total+1)
	for i := 0; i < total; i++ {
		r := e.BeginReadOnly()
		if r.T.ID() != txn.Anonymous {
			t.Fatalf("fast-lane reader %d has ID %d, want txn.Anonymous", i, r.T.ID())
		}
		readers = append(readers, r)
	}
	if n := e.TxnTable().Len(); n != 0 {
		t.Fatalf("fast-lane readers registered: table has %d entries", n)
	}
	s := e.Stats()
	if s.ReadOnlyBegins != uint64(total) || s.PinOverflows != 0 {
		t.Fatalf("fast-lane begins = %d, overflows = %d; want %d, 0", s.ReadOnlyBegins, s.PinOverflows, total)
	}
	over := e.BeginReadOnly() // table full: registered fallback
	readers = append(readers, over)
	s = e.Stats()
	if s.ReadOnlyBegins != uint64(total) || s.PinOverflows != 1 {
		t.Fatalf("after overflow: begins = %d, overflows = %d; want %d, 1", s.ReadOnlyBegins, s.PinOverflows, total)
	}
	// The overflow reader still works, just registered under a real ID, and
	// is still read-only.
	if id := over.T.ID(); id == txn.Anonymous {
		t.Fatal("overflow reader is anonymous")
	} else if got, ok := e.TxnTable().Lookup(id); !ok || got != over.T {
		t.Fatalf("overflow reader %d not in the transaction table", id)
	}
	if n := e.TxnTable().Len(); n != 1 {
		t.Fatalf("table has %d entries, want 1 (the overflow reader)", n)
	}
	if err := over.Insert(tbl, testPayload(2, 2)); err != ErrReadOnlyTx {
		t.Fatalf("overflow reader Insert: err = %v, want ErrReadOnlyTx", err)
	}
	if v, ok := readVal(t, over, tbl, 1); !ok || v != 1 {
		t.Fatalf("overflow reader read %d,%v", v, ok)
	}
	for _, tx := range readers {
		mustCommit(t, tx)
	}
	if n := e.TxnTable().Len(); n != 0 {
		t.Fatalf("table has %d entries after every reader committed, want 0", n)
	}
	// Slots freed: the fast lane is available again.
	r := e.BeginReadOnly()
	if got := e.Stats().ReadOnlyBegins; got != uint64(total)+1 {
		t.Fatalf("ReadOnlyBegins = %d, want %d", got, total+1)
	}
	mustCommit(t, r)
}
