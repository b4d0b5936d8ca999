package mv

// Dense keys no longer share hash buckets (storage.BucketMap), so these
// tests pick two distinct keys of one bucket on purpose to keep the
// collision paths covered.

import (
	"testing"

	"repro/internal/storage"
)

// collidingKey returns the smallest key above a that shares a's bucket in
// index ord.
func collidingKey(t *testing.T, tbl *storage.Table, ord int, a uint64) uint64 {
	t.Helper()
	ix := tbl.Index(ord).(*storage.HashIndex)
	for b := a + 1; b <= a+2*uint64(ix.NumBuckets()); b++ {
		if ix.Bucket(b) == ix.Bucket(a) {
			return b
		}
	}
	t.Fatalf("no key shares key %d's bucket", a)
	return 0
}

// TestBucketCollisionLookupSkipsForeignVersion: Lookup filters a bucket's
// chain on Version.Key, walking past the head version of another key to
// the one asked for, and finds nothing for an absent key of the bucket.
func TestBucketCollisionLookupSkipsForeignVersion(t *testing.T) {
	e, tbl := newTestEngine(t)
	const a = 5
	b := collidingKey(t, tbl, 0, a)
	c := collidingKey(t, tbl, 0, b)
	e.LoadRow(tbl, testPayload(a, 50))
	e.LoadRow(tbl, testPayload(b, 60))
	if head := tbl.Index(0).Lookup(a).Head(); head.Key(0) != b {
		t.Fatalf("bucket head holds key %d, want the colliding key %d", head.Key(0), b)
	}
	for _, s := range []Scheme{Optimistic, Pessimistic} {
		tx := e.Begin(s, Serializable)
		if v, ok := readVal(t, tx, tbl, a); !ok || v != 50 {
			t.Fatalf("%v: key %d reads %d, %v; want 50", s, a, v, ok)
		}
		if v, ok := readVal(t, tx, tbl, b); !ok || v != 60 {
			t.Fatalf("%v: key %d reads %d, %v; want 60", s, b, v, ok)
		}
		if v, ok := readVal(t, tx, tbl, c); ok {
			t.Fatalf("%v: absent key %d reads %d", s, c, v)
		}
		mustCommit(t, tx)
	}
}

// TestBucketCollisionScanLockCoversAbsentKey: an MV/L serializable lookup
// of an absent key locks its bucket, and an insert of another key of that
// bucket meets the lock (LockCount() > 0): the inserter takes a wait-for
// dependency and commits only after the scanner.
func TestBucketCollisionScanLockCoversAbsentKey(t *testing.T) {
	e, tbl := newTestEngine(t)
	const a = 7
	b := collidingKey(t, tbl, 0, a)
	scanner := e.Begin(Pessimistic, Serializable)
	if _, ok := readVal(t, scanner, tbl, a); ok {
		t.Fatal("unexpected row")
	}
	if n := tbl.Index(0).Lookup(b).LockCount(); n != 1 {
		t.Fatalf("bucket of key %d holds %d locks, want the scanner's 1", b, n)
	}
	ins := e.Begin(Pessimistic, ReadCommitted)
	if err := ins.Insert(tbl, testPayload(b, 70)); err != nil {
		t.Fatal(err)
	}
	commitsAfter(t, ins, scanner)
}
