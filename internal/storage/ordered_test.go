package storage

import (
	"math/rand"
	"sync"
	"testing"
)

func newOrderedTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable(TableSpec{
		Name:    "t",
		Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Ordered: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSkipListOrdering(t *testing.T) {
	var s SkipList[int]
	keys := rand.New(rand.NewSource(1)).Perm(1000)
	for _, k := range keys {
		s.GetOrCreate(uint64(k)).V = k
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	// Full in-order walk.
	prev := -1
	count := 0
	for n := s.Seek(0); n != nil; n = n.Next() {
		if int(n.Key()) <= prev {
			t.Fatalf("keys out of order: %d after %d", n.Key(), prev)
		}
		if n.V != int(n.Key()) {
			t.Fatalf("node %d has value %d", n.Key(), n.V)
		}
		prev = int(n.Key())
		count++
	}
	if count != 1000 {
		t.Fatalf("walked %d nodes, want 1000", count)
	}
	// Point hits and misses.
	if n := s.Get(500); n == nil || n.Key() != 500 {
		t.Fatal("Get(500) failed")
	}
	if n := s.Get(5000); n != nil {
		t.Fatal("Get(5000) found a ghost")
	}
	// Seek lands on the first key >= lo.
	if n := s.Seek(999); n == nil || n.Key() != 999 {
		t.Fatal("Seek(999) failed")
	}
	if n := s.Seek(1000); n != nil {
		t.Fatal("Seek past the end returned a node")
	}
	// Idempotent creation.
	if s.GetOrCreate(500) != s.Get(500) {
		t.Fatal("GetOrCreate returned a duplicate node")
	}
	if s.Len() != 1000 {
		t.Fatalf("Len after re-create = %d", s.Len())
	}
}

// TestSkipListConcurrent hammers concurrent creators and lock-free readers;
// -race verifies the publication protocol.
func TestSkipListConcurrent(t *testing.T) {
	var s SkipList[uint64]
	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				k := rng.Uint64() % 1000
				n := s.GetOrCreate(k)
				if n.Key() != k {
					t.Errorf("GetOrCreate(%d) returned node %d", k, n.Key())
					return
				}
				// Reader: short ordered walk from a random point.
				prev := int64(-1)
				for n := s.Seek(rng.Uint64() % 1000); n != nil && prev < int64(n.Key()); n = n.Next() {
					prev = int64(n.Key())
				}
			}
		}(w)
	}
	wg.Wait()
	// Final walk must be sorted and duplicate-free.
	seen := make(map[uint64]bool)
	prev := int64(-1)
	for n := s.Seek(0); n != nil; n = n.Next() {
		if int64(n.Key()) <= prev {
			t.Fatalf("out of order: %d after %d", n.Key(), prev)
		}
		if seen[n.Key()] {
			t.Fatalf("duplicate node %d", n.Key())
		}
		seen[n.Key()] = true
		prev = int64(n.Key())
	}
	if len(seen) != s.Len() {
		t.Fatalf("walk found %d nodes, Len says %d", len(seen), s.Len())
	}
}

func TestOrderedIndexLinkScan(t *testing.T) {
	tbl := newOrderedTable(t)
	ix := tbl.Index(0)
	if !ix.Ordered() {
		t.Fatal("index not ordered")
	}
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		tbl.Insert(NewVersion(pay(k), 1, 10, ^uint64(0)))
	}
	// Point lookups.
	if b := ix.Lookup(3); b == nil || b.Head() == nil || b.Head().Key(0) != 3 {
		t.Fatal("Lookup(3) failed")
	}
	if b := ix.Lookup(4); b != nil {
		t.Fatal("Lookup(4) returned a bucket for an absent key")
	}
	// Range cursor in order.
	var got []uint64
	cur, err := ix.ScanRange(2, 8)
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	for {
		b, key, ok := cur.Next()
		if !ok {
			break
		}
		if b.Head() == nil {
			t.Fatalf("empty bucket for key %d", key)
		}
		got = append(got, key)
	}
	want := []uint64{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("ScanRange keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanRange keys = %v, want %v", got, want)
		}
	}
	// Inverted and empty ranges.
	if _, _, ok := func() (*Bucket, uint64, bool) {
		c, err := ix.ScanRange(8, 2)
		if err != nil {
			t.Fatalf("inverted ScanRange: %v", err)
		}
		return c.Next()
	}(); ok {
		t.Fatal("inverted range yielded a bucket")
	}
}

// TestHashIndexScanRangeUnordered: the uniform range-gating contract at
// the storage layer — a hash index's ScanRange surfaces ErrUnordered
// rather than silently returning an exhausted cursor, so no caller can
// mistake "this index cannot answer range queries" for "empty range".
// (The engine layers have their own cross-engine regression:
// core.TestCoreScanRangeUnordered.)
func TestHashIndexScanRangeUnordered(t *testing.T) {
	tbl := newTable(t, 64)
	tbl.Insert(NewVersion(pay(1), 1, 10, ^uint64(0)))
	cur, err := tbl.Index(0).ScanRange(0, 10)
	if err != ErrUnordered {
		t.Fatalf("hash ScanRange err = %v, want ErrUnordered", err)
	}
	if _, _, ok := cur.Next(); ok {
		t.Fatal("error cursor yielded a bucket")
	}
}

func TestOrderedIndexUnlink(t *testing.T) {
	tbl := newOrderedTable(t)
	versions := make([]*Version, 0, 10)
	for k := uint64(0); k < 10; k++ {
		v := NewVersion(pay(k%2), 1, 10, ^uint64(0)) // two keys, five versions each
		tbl.Insert(v)
		versions = append(versions, v)
	}
	for _, v := range versions[:5] {
		if !tbl.Unlink(v) {
			t.Fatal("unlink failed")
		}
	}
	// Unlinked versions are gone from the chains; nodes survive.
	n := 0
	cur, err := tbl.Index(0).ScanRange(0, 10)
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	for {
		b, _, ok := cur.Next()
		if !ok {
			break
		}
		for v := b.Head(); v != nil; v = v.Next(0) {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("%d versions linked after unlink, want 5", n)
	}
	if tbl.Unlink(versions[0]) {
		t.Fatal("double unlink succeeded")
	}
}
