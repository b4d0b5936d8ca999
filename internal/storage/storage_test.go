package storage

import (
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

func pay(key uint64) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint64(p, key)
	return p
}

func keyOf(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

func newTable(t *testing.T, buckets int) *Table {
	t.Helper()
	tbl, err := NewTable(TableSpec{
		Name:    "t",
		Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Buckets: buckets}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(TableSpec{Name: "x"}); err == nil {
		t.Fatal("table without indexes accepted")
	}
	if _, err := NewTable(TableSpec{Name: "x", Indexes: []IndexSpec{{Name: "i"}}}); err == nil {
		t.Fatal("index without key func accepted")
	}
}

func TestInsertAndChainWalk(t *testing.T) {
	tbl := newTable(t, 4)
	for i := uint64(0); i < 100; i++ {
		tbl.Insert(NewVersion(pay(i), 1, field.FromTS(1), field.FromTS(field.Infinity)))
	}
	// All rows reachable through their buckets.
	ix := tbl.Index(0)
	found := 0
	for i := uint64(0); i < 100; i++ {
		for v := ix.Lookup(i).Head(); v != nil; v = v.Next(0) {
			if keyOf(v.Payload()) == i {
				found++
				break
			}
		}
	}
	if found != 100 {
		t.Fatalf("found %d rows, want 100", found)
	}
}

func TestUnlink(t *testing.T) {
	tbl := newTable(t, 1) // single bucket: one long chain
	var versions []*Version
	for i := uint64(0); i < 10; i++ {
		v := NewVersion(pay(i), 1, field.FromTS(1), field.FromTS(field.Infinity))
		tbl.Insert(v)
		versions = append(versions, v)
	}
	// Unlink head, middle, tail.
	for _, i := range []int{9, 5, 0} {
		if !tbl.Unlink(versions[i]) {
			t.Fatalf("unlink %d failed", i)
		}
	}
	// Double unlink refused.
	if tbl.Unlink(versions[5]) {
		t.Fatal("double unlink succeeded")
	}
	remaining := 0
	for v := hashIx(tbl).BucketAt(0).Head(); v != nil; v = v.Next(0) {
		remaining++
	}
	if remaining != 7 {
		t.Fatalf("chain has %d, want 7", remaining)
	}
}

func TestBucketSizing(t *testing.T) {
	tbl := newTable(t, 1000)
	if n := hashIx(tbl).NumBuckets(); n != 1024 {
		t.Fatalf("buckets = %d, want 1024 (rounded to power of two)", n)
	}
}

func TestMultiIndex(t *testing.T) {
	tbl, err := NewTable(TableSpec{
		Name: "t",
		Indexes: []IndexSpec{
			{Name: "pk", Key: keyOf, Buckets: 16},
			{Name: "mod", Key: func(p []byte) uint64 { return keyOf(p) % 3 }, Buckets: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumIndexes() != 2 {
		t.Fatalf("NumIndexes = %d", tbl.NumIndexes())
	}
	if _, ok := tbl.IndexByName("mod"); !ok {
		t.Fatal("IndexByName failed")
	}
	if _, ok := tbl.IndexByName("nope"); ok {
		t.Fatal("IndexByName found ghost")
	}
	for i := uint64(0); i < 9; i++ {
		tbl.Insert(NewVersion(pay(i), 2, field.FromTS(1), field.FromTS(field.Infinity)))
	}
	// Scan secondary index for key%3 == 1: should find 1, 4, 7.
	ix := tbl.Index(1)
	got := map[uint64]bool{}
	for v := ix.Lookup(1).Head(); v != nil; v = v.Next(1) {
		if keyOf(v.Payload())%3 == 1 {
			got[keyOf(v.Payload())] = true
		}
	}
	for _, want := range []uint64{1, 4, 7} {
		if !got[want] {
			t.Fatalf("missing %d in secondary scan (got %v)", want, got)
		}
	}
}

func TestVersionWords(t *testing.T) {
	v := NewVersion(pay(1), 1, field.FromTS(5), field.FromTS(field.Infinity))
	if field.TS(v.Begin()) != 5 {
		t.Fatal("begin mismatch")
	}
	if !v.CASEnd(field.FromTS(field.Infinity), field.Lock(7, 0, false)) {
		t.Fatal("CASEnd failed")
	}
	if v.CASEnd(field.FromTS(field.Infinity), field.FromTS(9)) {
		t.Fatal("stale CASEnd succeeded")
	}
	v.SetBegin(field.FromTS(6))
	if field.TS(v.Begin()) != 6 {
		t.Fatal("SetBegin mismatch")
	}
}

func TestIsGarbage(t *testing.T) {
	// Committed old version: garbage once watermark passes its end.
	v := NewVersion(pay(1), 1, field.FromTS(5), field.FromTS(10))
	if v.IsGarbage(9) {
		t.Fatal("garbage before watermark")
	}
	if !v.IsGarbage(10) {
		t.Fatal("not garbage at watermark")
	}
	// Latest version: never garbage.
	latest := NewVersion(pay(1), 1, field.FromTS(5), field.FromTS(field.Infinity))
	if latest.IsGarbage(1 << 60) {
		t.Fatal("latest version garbage")
	}
	// Aborted creation (begin infinity): garbage immediately.
	ab := NewVersion(pay(1), 1, field.FromTS(field.Infinity), field.FromTS(field.Infinity))
	if !ab.IsGarbage(0) {
		t.Fatal("aborted version not garbage")
	}
	// Write-locked version: not garbage (End is a lock word).
	locked := NewVersion(pay(1), 1, field.FromTS(5), field.Lock(3, 0, false))
	if locked.IsGarbage(1 << 60) {
		t.Fatal("locked version garbage")
	}
}

func TestConcurrentInsertUnlinkRead(t *testing.T) {
	tbl := newTable(t, 8)
	const rounds = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers walk chains continuously.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := uint64(0); i < 8; i++ {
					for v := hashIx(tbl).BucketAt(int(i)).Head(); v != nil; v = v.Next(0) {
						_ = v.Payload()
					}
				}
			}
		}()
	}
	// A writer inserts then unlinks.
	for i := 0; i < rounds; i++ {
		v := NewVersion(pay(uint64(i)), 1, field.FromTS(1), field.FromTS(2))
		tbl.Insert(v)
		if i%2 == 0 {
			tbl.Unlink(v)
		}
	}
	close(stop)
	wg.Wait()
}

func TestBucketLockTable(t *testing.T) {
	tbl := newTable(t, 8)
	blt := NewBucketLockTable()
	b := hashIx(tbl).BucketAt(0)
	blt.Acquire(b, 1)
	blt.Acquire(b, 2)
	if b.LockCount() != 2 {
		t.Fatalf("LockCount = %d", b.LockCount())
	}
	h := blt.AppendHolders(nil, b)
	if len(h) != 2 {
		t.Fatalf("Holders = %v", h)
	}
	blt.Release(b, 1)
	if b.LockCount() != 1 {
		t.Fatalf("LockCount = %d after release", b.LockCount())
	}
	if h := blt.AppendHolders(nil, b); len(h) != 1 || h[0] != 2 {
		t.Fatalf("Holders = %v", h)
	}
	// Releasing a non-held lock is a no-op.
	blt.Release(b, 99)
	if b.LockCount() != 1 {
		t.Fatal("no-op release changed count")
	}
	blt.Release(b, 2)
	if b.LockCount() != 0 || len(blt.AppendHolders(nil, b)) != 0 {
		t.Fatal("final release incomplete")
	}
}

func TestBucketLockTableConcurrent(t *testing.T) {
	tbl := newTable(t, 64)
	blt := NewBucketLockTable()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := hashIx(tbl).BucketAt(i % 64)
				blt.Acquire(b, uint64(w*1000+i))
				blt.Release(b, uint64(w*1000+i))
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 64; i++ {
		if c := hashIx(tbl).BucketAt(i).LockCount(); c != 0 {
			t.Fatalf("bucket %d count %d after quiesce", i, c)
		}
	}
}

// Property: bucket routing is deterministic and within range.
func TestQuickBucketRouting(t *testing.T) {
	tbl := newTable(t, 1024)
	ix := tbl.Index(0)
	f := func(key uint64) bool {
		b1 := ix.Lookup(key)
		b2 := ix.Lookup(key)
		return b1 == b2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a version inserted into a table is always reachable via every
// index until unlinked, and never reachable after.
func TestQuickInsertReachable(t *testing.T) {
	tbl, _ := NewTable(TableSpec{
		Name: "t",
		Indexes: []IndexSpec{
			{Name: "pk", Key: keyOf, Buckets: 32},
			{Name: "half", Key: func(p []byte) uint64 { return keyOf(p) / 2 }, Buckets: 32},
		},
	})
	reach := func(v *Version, ord int) bool {
		key := tbl.Index(ord).Key(v.Payload())
		for c := tbl.Index(ord).Lookup(key).Head(); c != nil; c = c.Next(ord) {
			if c == v {
				return true
			}
		}
		return false
	}
	f := func(key uint64) bool {
		v := NewVersion(pay(key), 2, field.FromTS(1), field.FromTS(field.Infinity))
		tbl.Insert(v)
		if !reach(v, 0) || !reach(v, 1) {
			return false
		}
		tbl.Unlink(v)
		return !reach(v, 0) && !reach(v, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// hashIx returns the table's first index as a HashIndex (test helper for
// bucket-level access).
func hashIx(tbl *Table) *HashIndex { return tbl.Index(0).(*HashIndex) }
