package sv

// Dense keys no longer share hash buckets (storage.BucketMap), so these
// tests pick two distinct keys of one bucket on purpose to keep the
// collision paths covered.

import (
	"testing"
	"time"

	"repro/internal/iso"
)

// collidingKey returns the smallest key above a that shares a's bucket in
// hash index ord.
func collidingKey(t *testing.T, tbl *Table, ord int, a uint64) uint64 {
	t.Helper()
	ix := tbl.hashIxs[ord]
	ba, _ := ix.bucket(a)
	for b := a + 1; b <= a+2*uint64(len(ix.buckets)); b++ {
		if bb, _ := ix.bucket(b); bb == ba {
			return b
		}
	}
	t.Fatalf("no key shares key %d's bucket", a)
	return 0
}

// TestBucketCollisionScanSkipsForeignRecord: scanChain skips records of
// another key of the bucket, so a lookup walks past a foreign head record to
// its own and finds nothing for an absent key of the bucket.
func TestBucketCollisionScanSkipsForeignRecord(t *testing.T) {
	e, tbl := newTestEngine(t, 0)
	const a = 5
	b := collidingKey(t, tbl, 0, a)
	c := collidingKey(t, tbl, 0, b)
	e.LoadRow(tbl, testPayload(a, 50))
	e.LoadRow(tbl, testPayload(b, 60))
	if ba, _ := tbl.hashIxs[0].bucket(a); ba.head.link(0).key != b {
		t.Fatalf("bucket head holds key %d, want the colliding key %d", ba.head.link(0).key, b)
	}
	tx := e.Begin(iso.Serializable)
	seen := 0
	if err := tx.Scan(tbl, 0, a, nil, func(r *Record) bool {
		if k := payloadKey(r.Payload()); k != a {
			t.Errorf("scan of key %d returned key %d", a, k)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("scan of key %d returned %d records, want 1", a, seen)
	}
	if v, ok := readVal(t, tx, tbl, b); !ok || v != 60 {
		t.Fatalf("key %d reads %d, %v; want 60", b, v, ok)
	}
	if v, ok := readVal(t, tx, tbl, c); ok {
		t.Fatalf("absent key %d reads %d", c, v)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBucketCollisionInsertWaitsOnScanRecord: a serializable lookup of an
// absent key holds its bucket's S lock to commit, so an insert of another
// absent key of that bucket blocks behind it (phantom protection covers the
// whole bucket) and proceeds once the scanner commits.
func TestBucketCollisionInsertWaitsOnScanRecord(t *testing.T) {
	e, tbl := newTestEngine(t, 10*time.Millisecond)
	const a = 7
	b := collidingKey(t, tbl, 0, a)
	ser := e.Begin(iso.Serializable)
	if _, ok := readVal(t, ser, tbl, a); ok {
		t.Fatal("unexpected row")
	}
	ins := e.Begin(iso.ReadCommitted)
	if err := ins.Insert(tbl, testPayload(b, 70)); err != ErrLockTimeout {
		t.Fatalf("insert of colliding key %d: err = %v, want ErrLockTimeout", b, err)
	}
	ins.Abort()
	if err := ser.Commit(); err != nil {
		t.Fatal(err)
	}
	ins = e.Begin(iso.ReadCommitted)
	if err := ins.Insert(tbl, testPayload(b, 70)); err != nil {
		t.Fatalf("insert after the scanner committed: %v", err)
	}
	if err := ins.Commit(); err != nil {
		t.Fatal(err)
	}
}
