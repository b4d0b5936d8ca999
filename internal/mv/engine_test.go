package mv

import (
	"encoding/binary"
	"testing"

	"repro/internal/storage"
)

// testPayload builds a payload with a uint64 key followed by a uint64 value.
func testPayload(key, val uint64) []byte {
	p := make([]byte, 16)
	binary.LittleEndian.PutUint64(p, key)
	binary.LittleEndian.PutUint64(p[8:], val)
	return p
}

func payloadKey(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }
func payloadVal(p []byte) uint64 { return binary.LittleEndian.Uint64(p[8:]) }

func newTestEngine(t *testing.T) (*Engine, *storage.Table) {
	t.Helper()
	e := NewEngine(Config{DeadlockInterval: -1}) // cooperative detection in tests
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "t",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Buckets: 1 << 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, tbl
}

func mustCommit(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// readVal looks up key and returns its value; found=false if invisible.
func readVal(t *testing.T, tx *Tx, tbl *storage.Table, key uint64) (uint64, bool) {
	t.Helper()
	v, ok, err := tx.Lookup(tbl, 0, key, nil)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if !ok {
		return 0, false
	}
	return payloadVal(v.Payload()), true
}

func writeVal(t *testing.T, tx *Tx, tbl *storage.Table, key, val uint64) error {
	t.Helper()
	_, err := tx.UpdateWhere(tbl, 0, key, nil, func([]byte) []byte {
		return testPayload(key, val)
	})
	return err
}

func TestInsertCommitRead(t *testing.T) {
	for _, scheme := range []Scheme{Optimistic, Pessimistic} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, tbl := newTestEngine(t)
			tx := e.Begin(scheme, Serializable)
			if err := tx.Insert(tbl, testPayload(1, 100)); err != nil {
				t.Fatal(err)
			}
			// Visible to self before commit.
			if v, ok := readVal(t, tx, tbl, 1); !ok || v != 100 {
				t.Fatalf("self-read = %d,%v", v, ok)
			}
			// Invisible to others before commit.
			other := e.Begin(scheme, ReadCommitted)
			if _, ok := readVal(t, other, tbl, 1); ok {
				t.Fatal("uncommitted insert visible to other txn")
			}
			mustCommit(t, other)
			mustCommit(t, tx)
			// Visible after commit.
			after := e.Begin(scheme, ReadCommitted)
			if v, ok := readVal(t, after, tbl, 1); !ok || v != 100 {
				t.Fatalf("post-commit read = %d,%v", v, ok)
			}
			mustCommit(t, after)
		})
	}
}

func TestUpdateCreatesNewVersion(t *testing.T) {
	for _, scheme := range []Scheme{Optimistic, Pessimistic} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, tbl := newTestEngine(t)
			e.LoadRow(tbl, testPayload(1, 10))

			// Snapshot reader begins before the update.
			snap := e.Begin(scheme, SnapshotIsolation)
			if v, ok := readVal(t, snap, tbl, 1); !ok || v != 10 {
				t.Fatalf("snapshot read before update = %d,%v", v, ok)
			}

			up := e.Begin(scheme, ReadCommitted)
			if err := writeVal(t, up, tbl, 1, 20); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, up)

			// The old snapshot still sees 10 (version isolation)...
			if v, ok := readVal(t, snap, tbl, 1); !ok || v != 10 {
				t.Fatalf("snapshot read after update = %d,%v, want 10", v, ok)
			}
			mustCommit(t, snap)
			// ...while a fresh reader sees 20.
			fresh := e.Begin(scheme, ReadCommitted)
			if v, ok := readVal(t, fresh, tbl, 1); !ok || v != 20 {
				t.Fatalf("fresh read = %d,%v, want 20", v, ok)
			}
			mustCommit(t, fresh)
		})
	}
}

func TestDeleteHidesRecord(t *testing.T) {
	for _, scheme := range []Scheme{Optimistic, Pessimistic} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, tbl := newTestEngine(t)
			e.LoadRow(tbl, testPayload(5, 55))
			tx := e.Begin(scheme, ReadCommitted)
			n, err := tx.DeleteWhere(tbl, 0, 5, nil)
			if err != nil || n != 1 {
				t.Fatalf("delete: n=%d err=%v", n, err)
			}
			// Deleted row invisible to self.
			if _, ok := readVal(t, tx, tbl, 5); ok {
				t.Fatal("deleted row visible to deleter")
			}
			mustCommit(t, tx)
			after := e.Begin(scheme, ReadCommitted)
			if _, ok := readVal(t, after, tbl, 5); ok {
				t.Fatal("deleted row visible after commit")
			}
			mustCommit(t, after)
		})
	}
}

func TestAbortRollsBack(t *testing.T) {
	for _, scheme := range []Scheme{Optimistic, Pessimistic} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, tbl := newTestEngine(t)
			e.LoadRow(tbl, testPayload(1, 10))
			tx := e.Begin(scheme, ReadCommitted)
			if err := writeVal(t, tx, tbl, 1, 99); err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert(tbl, testPayload(2, 22)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			after := e.Begin(scheme, ReadCommitted)
			if v, ok := readVal(t, after, tbl, 1); !ok || v != 10 {
				t.Fatalf("post-abort read = %d,%v, want 10", v, ok)
			}
			if _, ok := readVal(t, after, tbl, 2); ok {
				t.Fatal("aborted insert visible")
			}
			mustCommit(t, after)
		})
	}
}

func TestWriteWriteConflictFirstWriterWins(t *testing.T) {
	for _, scheme := range []Scheme{Optimistic, Pessimistic} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, tbl := newTestEngine(t)
			e.LoadRow(tbl, testPayload(1, 10))
			t1 := e.Begin(scheme, ReadCommitted)
			t2 := e.Begin(scheme, ReadCommitted)
			if err := writeVal(t, t1, tbl, 1, 11); err != nil {
				t.Fatal(err)
			}
			// Second writer must get a write-write conflict.
			if err := writeVal(t, t2, tbl, 1, 12); err != ErrWriteConflict {
				t.Fatalf("second write err = %v, want ErrWriteConflict", err)
			}
			if err := t2.Abort(); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, t1)
			after := e.Begin(scheme, ReadCommitted)
			if v, _ := readVal(t, after, tbl, 1); v != 11 {
				t.Fatalf("value = %d, want 11", v)
			}
			mustCommit(t, after)
		})
	}
}

func TestUpdateAfterAbortedWriterSteals(t *testing.T) {
	for _, scheme := range []Scheme{Optimistic, Pessimistic} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, tbl := newTestEngine(t)
			e.LoadRow(tbl, testPayload(1, 10))
			t1 := e.Begin(scheme, ReadCommitted)
			if err := writeVal(t, t1, tbl, 1, 11); err != nil {
				t.Fatal(err)
			}
			if err := t1.Abort(); err != nil {
				t.Fatal(err)
			}
			// After t1's abort the version is updatable again.
			t2 := e.Begin(scheme, ReadCommitted)
			if err := writeVal(t, t2, tbl, 1, 12); err != nil {
				t.Fatalf("update after abort: %v", err)
			}
			mustCommit(t, t2)
			after := e.Begin(scheme, ReadCommitted)
			if v, _ := readVal(t, after, tbl, 1); v != 12 {
				t.Fatalf("value = %d, want 12", v)
			}
			mustCommit(t, after)
		})
	}
}

func TestReadCommittedSeesLatest(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	rc := e.Begin(Optimistic, ReadCommitted)
	if v, _ := readVal(t, rc, tbl, 1); v != 10 {
		t.Fatalf("first read = %d", v)
	}
	up := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, up, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, up)
	// Read committed re-reads at current time: sees the new value.
	if v, _ := readVal(t, rc, tbl, 1); v != 20 {
		t.Fatalf("second read = %d, want 20 (read committed)", v)
	}
	mustCommit(t, rc)
}

func TestSnapshotIsolationStableReads(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	si := e.Begin(Optimistic, SnapshotIsolation)
	if v, _ := readVal(t, si, tbl, 1); v != 10 {
		t.Fatalf("first read = %d", v)
	}
	up := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, up, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, up)
	if v, _ := readVal(t, si, tbl, 1); v != 10 {
		t.Fatalf("second read = %d, want 10 (snapshot)", v)
	}
	mustCommit(t, si)
}

func TestOptimisticRepeatableReadValidationFails(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	rr := e.Begin(Optimistic, RepeatableRead)
	if v, _ := readVal(t, rr, tbl, 1); v != 10 {
		t.Fatalf("read = %d", v)
	}
	// Concurrent committed update invalidates rr's read.
	up := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, up, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, up)
	if err := rr.Commit(); err != ErrValidation {
		t.Fatalf("commit err = %v, want ErrValidation", err)
	}
}

func TestOptimisticSerializablePhantomDetected(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	ser := e.Begin(Optimistic, Serializable)
	// Scan for key 2: nothing there yet.
	if _, ok := readVal(t, ser, tbl, 2); ok {
		t.Fatal("unexpected row")
	}
	// Another transaction inserts a matching row and commits.
	ins := e.Begin(Optimistic, ReadCommitted)
	if err := ins.Insert(tbl, testPayload(2, 22)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, ins)
	// The rescan at validation finds the phantom.
	if err := ser.Commit(); err != ErrValidation {
		t.Fatalf("commit err = %v, want ErrValidation (phantom)", err)
	}
}

func TestPessimisticReadLockBlocksWriterCommit(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	// Reader takes a read lock.
	reader := e.Begin(Pessimistic, RepeatableRead)
	if v, _ := readVal(t, reader, tbl, 1); v != 10 {
		t.Fatal("read failed")
	}
	// Writer eagerly updates the read-locked version...
	writer := e.Begin(Pessimistic, ReadCommitted)
	if err := writeVal(t, writer, tbl, 1, 20); err != nil {
		t.Fatalf("eager update: %v", err)
	}
	// ...but cannot precommit until the reader releases. Run the commit in
	// a goroutine and verify it is blocked.
	committed := make(chan error, 1)
	go func() { committed <- writer.Commit() }()
	select {
	case err := <-committed:
		t.Fatalf("writer committed while read lock held: %v", err)
	default:
	}
	// Reader finishes; writer must now commit.
	mustCommit(t, reader)
	if err := <-committed; err != nil {
		t.Fatalf("writer commit after release: %v", err)
	}
	after := e.Begin(Pessimistic, ReadCommitted)
	if v, _ := readVal(t, after, tbl, 1); v != 20 {
		t.Fatalf("value = %d, want 20", v)
	}
	mustCommit(t, after)
}

func TestPessimisticSerializablePreventsPhantom(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	ser := e.Begin(Pessimistic, Serializable)
	// Scan key 2's bucket: takes a bucket lock.
	if _, ok := readVal(t, ser, tbl, 2); ok {
		t.Fatal("unexpected row")
	}
	// A concurrent insert into the locked bucket succeeds eagerly but the
	// inserter cannot commit until ser completes.
	ins := e.Begin(Pessimistic, ReadCommitted)
	if err := ins.Insert(tbl, testPayload(2, 22)); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- ins.Commit() }()
	select {
	case err := <-committed:
		t.Fatalf("inserter committed under bucket lock: %v", err)
	default:
	}
	// ser still must not see the phantom, then commits, releasing ins.
	if _, ok := readVal(t, ser, tbl, 2); ok {
		t.Fatal("phantom visible to serializable scan")
	}
	mustCommit(t, ser)
	if err := <-committed; err != nil {
		t.Fatalf("inserter commit: %v", err)
	}
}

func TestMixedSchemesShareEngine(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	// Pessimistic reader locks; optimistic writer must honor the lock
	// (peaceful coexistence, Section 4.5).
	reader := e.Begin(Pessimistic, RepeatableRead)
	if v, _ := readVal(t, reader, tbl, 1); v != 10 {
		t.Fatal("read failed")
	}
	writer := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, writer, tbl, 1, 20); err != nil {
		t.Fatalf("optimistic eager update: %v", err)
	}
	committed := make(chan error, 1)
	go func() { committed <- writer.Commit() }()
	select {
	case err := <-committed:
		t.Fatalf("optimistic writer ignored read lock: %v", err)
	default:
	}
	mustCommit(t, reader)
	if err := <-committed; err != nil {
		t.Fatalf("optimistic writer commit: %v", err)
	}
}

func TestGarbageCollectionReclaims(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 0))
	for i := 1; i <= 50; i++ {
		tx := e.Begin(Optimistic, ReadCommitted)
		if err := writeVal(t, tx, tbl, 1, uint64(i)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	// With no active transactions, everything but the latest version is
	// garbage.
	total := 0
	for i := 0; i < 10; i++ {
		total += e.CollectGarbage(0)
	}
	if total != 50 {
		t.Fatalf("reclaimed %d versions, want 50", total)
	}
	// The chain should now contain exactly one version.
	n := 0
	ix := tbl.Index(0)
	for v := ix.Lookup(1).Head(); v != nil; v = v.Next(0) {
		if payloadKey(v.Payload()) == 1 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("chain has %d versions, want 1", n)
	}
	after := e.Begin(Optimistic, ReadCommitted)
	if v, _ := readVal(t, after, tbl, 1); v != 50 {
		t.Fatalf("value after GC = %d, want 50", v)
	}
	mustCommit(t, after)
}

func TestGCBlockedByActiveSnapshot(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 0))
	snap := e.Begin(Optimistic, SnapshotIsolation)
	if v, _ := readVal(t, snap, tbl, 1); v != 0 {
		t.Fatal("snapshot read failed")
	}
	up := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, up, tbl, 1, 1); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, up)
	// The old version is still visible to snap: GC must not reclaim it.
	if n := e.CollectGarbage(0); n != 0 {
		t.Fatalf("GC reclaimed %d versions while snapshot active", n)
	}
	if v, _ := readVal(t, snap, tbl, 1); v != 0 {
		t.Fatal("snapshot read changed")
	}
	mustCommit(t, snap)
	if n := e.CollectGarbage(0); n != 1 {
		t.Fatalf("GC reclaimed %d versions after snapshot ended, want 1", n)
	}
}

func TestSpeculativeReadCommitDependency(t *testing.T) {
	// A reader that encounters a Preparing writer's version speculatively
	// reads it and commits only after the writer commits.
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))

	writer := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, writer, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	// Drive the writer manually into Preparing: we emulate the window by
	// using a second engine-level transaction... simplest: commit in a
	// goroutine while a reader races. This is inherently timing dependent,
	// so instead verify the dependency machinery directly elsewhere; here
	// just check end-to-end that racing readers never see torn state.
	done := make(chan error, 1)
	go func() { done <- writer.Commit() }()
	for i := 0; i < 100; i++ {
		r := e.Begin(Optimistic, ReadCommitted)
		v, ok := readVal(t, r, tbl, 1)
		if ok && v != 10 && v != 20 {
			t.Fatalf("torn read: %d", v)
		}
		if err := r.Commit(); err != nil && err != ErrAborted {
			t.Fatalf("reader commit: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	tx := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, tx, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx2 := e.Begin(Optimistic, ReadCommitted)
	tx2.Abort()
	s := e.Stats()
	if s.Commits != 1 || s.Aborts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
