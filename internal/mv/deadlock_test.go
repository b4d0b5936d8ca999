package mv

// Wait-for deadlock construction and resolution (Section 4.4): two
// serializable pessimistic transactions each insert into a bucket the other
// has scanned, imposing mutual phantom-prevention wait-for dependencies.
// Both block before precommit; the detector aborts the younger one.

import (
	"testing"
	"time"

	"repro/internal/storage"
)

// distinctBuckets returns two keys routed to different buckets of tbl's
// primary index.
func distinctBuckets(tbl *storage.Table, from uint64) (uint64, uint64) {
	ix := tbl.Index(0)
	a := from
	for b := a + 1; ; b++ {
		if ix.Lookup(a) != ix.Lookup(b) {
			return a, b
		}
	}
}

func TestWaitForDeadlockDetectedAndBroken(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: time.Millisecond})
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	keyA, keyB := distinctBuckets(tbl, 1)

	t1 := e.Begin(Pessimistic, Serializable)
	t2 := e.Begin(Pessimistic, Serializable)

	// Each inserts its own key...
	if err := t1.Insert(tbl, testPayload(keyA, 1)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Insert(tbl, testPayload(keyB, 2)); err != nil {
		t.Fatal(err)
	}
	// ...then scans the other's bucket, finding the other's uncommitted
	// insert: a potential phantom, so each imposes a wait-for dependency on
	// the other (Section 4.2.2).
	if _, ok := readVal(t, t1, tbl, keyB); ok {
		t.Fatal("t1 saw t2's uncommitted insert")
	}
	if _, ok := readVal(t, t2, tbl, keyA); ok {
		t.Fatal("t2 saw t1's uncommitted insert")
	}
	if t1.T.WaitForCount() != 1 || t2.T.WaitForCount() != 1 {
		t.Fatalf("wait-for counts = %d/%d, want 1/1",
			t1.T.WaitForCount(), t2.T.WaitForCount())
	}

	// Both commit concurrently: a cycle. The detector must abort exactly
	// one; the survivor commits.
	errs := make(chan error, 2)
	go func() { errs <- t1.Commit() }()
	go func() { errs <- t2.Commit() }()
	var failures, successes int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				failures++
			} else {
				successes++
			}
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock not broken within 10s")
		}
	}
	if failures != 1 || successes != 1 {
		t.Fatalf("failures=%d successes=%d, want exactly one victim", failures, successes)
	}
	if e.Stats().DeadlockVictims != 1 {
		t.Fatalf("DeadlockVictims = %d", e.Stats().DeadlockVictims)
	}
}

func TestCooperativeDeadlockDetection(t *testing.T) {
	// Same construction, background detector disabled: DetectDeadlocks()
	// resolves it synchronously.
	e := NewEngine(Config{DeadlockInterval: -1})
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	keyA, keyB := distinctBuckets(tbl, 1)

	t1 := e.Begin(Pessimistic, Serializable)
	t2 := e.Begin(Pessimistic, Serializable)
	if err := t1.Insert(tbl, testPayload(keyA, 1)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Insert(tbl, testPayload(keyB, 2)); err != nil {
		t.Fatal(err)
	}
	readVal(t, t1, tbl, keyB)
	readVal(t, t2, tbl, keyA)

	errs := make(chan error, 2)
	go func() { errs <- t1.Commit() }()
	go func() { errs <- t2.Commit() }()

	// Let both reach their wait, then run detection until a victim falls.
	deadline := time.Now().Add(5 * time.Second)
	victims := 0
	for victims == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		victims = e.DetectDeadlocks()
	}
	if victims != 1 {
		t.Fatalf("DetectDeadlocks found %d victims", victims)
	}
	var failures int
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1", failures)
	}
}

// A read-then-update of one row by a single transaction is not a deadlock.
// The eager update of its own read-locked version leaves the transaction
// with a transient wait-for dependency (drained by precommit), during which
// the transaction holds both a read lock and the write lock on the version;
// that must not become a one-node cycle. Repeatable read is the level whose
// reads take read locks (a serializable read rides its scan lock).
func TestSelfReadLockUpdateNotVictimized(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1})
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.LoadRow(tbl, testPayload(1, 10))

	tx := e.Begin(Pessimistic, RepeatableRead)
	v, ok, err := tx.Lookup(tbl, 0, 1, nil) // repeatable read: read-locks v
	if err != nil || !ok {
		t.Fatal("lookup failed")
	}
	if err := tx.Update(tbl, v, testPayload(1, 11)); err != nil {
		t.Fatal(err)
	}
	// The transaction now waits (until precommit) for the read locks found
	// on v — its own. The detector must not treat that as a cycle.
	if tx.T.WaitForCount() != 1 {
		t.Fatalf("WaitForCount = %d, want the eager-update dependency", tx.T.WaitForCount())
	}
	for i := 0; i < 10; i++ {
		if n := e.DetectDeadlocks(); n != 0 {
			t.Fatalf("detector victimized a lone read-then-update transaction (%d victims)", n)
		}
	}
	mustCommit(t, tx)
	if e.Stats().DeadlockVictims != 0 {
		t.Fatalf("DeadlockVictims = %d, want 0", e.Stats().DeadlockVictims)
	}
}

// TestReadLockCycleDetected: a cycle whose edges are all implicit. Two
// repeatable-read transactions each read-lock one row, then each updates the
// row the other read, so each owes a wait-for dependency to the other's read
// lock. Neither has a waiter list entry: the detector sees the cycle only
// through the read-lock lists the two publish before they wait. Exactly one
// must fall, under the background detector and under DetectDeadlocks alike.
func TestReadLockCycleDetected(t *testing.T) {
	for _, c := range []struct {
		name     string
		interval time.Duration
	}{{"Background", time.Millisecond}, {"Cooperative", -1}} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(Config{DeadlockInterval: c.interval})
			t.Cleanup(func() { e.Close() })
			tbl, err := e.CreateTable(storage.TableSpec{
				Name:    "t",
				Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 10}},
			})
			if err != nil {
				t.Fatal(err)
			}
			e.LoadRow(tbl, testPayload(1, 10))
			e.LoadRow(tbl, testPayload(2, 20))

			t1 := e.Begin(Pessimistic, RepeatableRead)
			t2 := e.Begin(Pessimistic, RepeatableRead)
			readVal(t, t1, tbl, 1)
			readVal(t, t2, tbl, 2)
			if err := writeVal(t, t1, tbl, 2, 21); err != nil {
				t.Fatal(err)
			}
			if err := writeVal(t, t2, tbl, 1, 11); err != nil {
				t.Fatal(err)
			}
			if t1.T.WaitForCount() != 1 || t2.T.WaitForCount() != 1 {
				t.Fatalf("wait-for counts = %d/%d, want 1/1", t1.T.WaitForCount(), t2.T.WaitForCount())
			}
			if len(t1.T.Waiters()) != 0 || len(t2.T.Waiters()) != 0 {
				t.Fatal("explicit wait-for edges in a read-lock cycle")
			}

			errs := make(chan error, 2)
			go func() { errs <- t1.Commit() }()
			go func() { errs <- t2.Commit() }()
			deadline := time.After(5 * time.Second)
			var failures, successes int
			for failures+successes < 2 {
				select {
				case err := <-errs:
					if err != nil {
						failures++
					} else {
						successes++
					}
				case <-deadline:
					t.Fatal("read-lock deadlock not broken within 5s")
				case <-time.After(time.Millisecond):
					if c.interval < 0 {
						e.DetectDeadlocks()
					}
				}
			}
			if failures != 1 || successes != 1 {
				t.Fatalf("failures=%d successes=%d, want exactly one victim", failures, successes)
			}
			if v := e.Stats().DeadlockVictims; v != 1 {
				t.Fatalf("DeadlockVictims = %d, want 1", v)
			}
		})
	}
}

// No false deadlocks: two transactions with a one-directional dependency
// both commit.
func TestNoFalseDeadlock(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: time.Millisecond})
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	keyA, _ := distinctBuckets(tbl, 1)

	ser := e.Begin(Pessimistic, Serializable)
	ins := e.Begin(Pessimistic, ReadCommitted)
	// ser scans keyA's bucket (locks it); ins inserts there and must wait
	// for ser — one edge, no cycle.
	if _, ok := readVal(t, ser, tbl, keyA); ok {
		t.Fatal("unexpected row")
	}
	if err := ins.Insert(tbl, testPayload(keyA, 9)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ins.Commit() }()
	time.Sleep(20 * time.Millisecond) // give the detector time to run
	select {
	case err := <-done:
		t.Fatalf("ins committed before ser finished: %v", err)
	default:
	}
	mustCommit(t, ser)
	if err := <-done; err != nil {
		t.Fatalf("ins aborted without a deadlock: %v", err)
	}
	if e.Stats().DeadlockVictims != 0 {
		t.Fatalf("false deadlock: %d victims", e.Stats().DeadlockVictims)
	}
}

// The detector sweeps every couple of milliseconds and almost never finds a
// blocked transaction; such a pass must allocate nothing, whether the
// transaction table is empty or holds running (unblocked) transactions —
// otherwise allocations per transaction depend on the transaction rate.
func TestIdleDetectorPassAllocatesNothing(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1})
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		if n := e.DetectDeadlocks(); n != 0 {
			t.Errorf("victims = %d on an engine with nothing blocked", n)
		}
	}
	if a := testing.AllocsPerRun(100, pass); a != 0 {
		t.Fatalf("pass over an empty transaction table: %v allocs", a)
	}
	for i := uint64(1); i <= 4; i++ {
		tx := e.Begin(Pessimistic, Serializable)
		if err := tx.Insert(tbl, testPayload(i, i)); err != nil {
			t.Fatal(err)
		}
		defer tx.Abort()
	}
	if a := testing.AllocsPerRun(100, pass); a != 0 {
		t.Fatalf("pass over running transactions: %v allocs", a)
	}
}
