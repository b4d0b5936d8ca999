package storage

import (
	"sync"
	"testing"
)

// always / never are quiescence predicates for single-threaded tests.
func always(uint64) bool { return true }

// stampOf adapts a fixed value to the stamp-drawing callback.
func stampOf(v uint64) func() uint64 { return func() uint64 { return v } }
func never(uint64) bool              { return false }

func listKeys[V any](s *SkipList[V]) []uint64 {
	var keys []uint64
	for n := s.Seek(0); n != nil; n = n.Next() {
		keys = append(keys, n.Key())
	}
	return keys
}

func TestSkipListMarkSweepFree(t *testing.T) {
	var s SkipList[int]
	for k := uint64(0); k < 10; k++ {
		s.GetOrCreate(k)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	// Mark the even keys deleted (their "values" are conceptually empty).
	for k := uint64(0); k < 10; k += 2 {
		if !s.MarkDeleted(s.Get(k)) {
			t.Fatalf("MarkDeleted(%d) failed", k)
		}
	}
	if s.MarkDeleted(s.Get(1)); s.MarkDeleted(s.Get(1)) {
		t.Fatal("double MarkDeleted succeeded")
	}
	// Re-arm key 1: revive it (counts as live again).
	if !s.Revive(s.Get(1)) {
		t.Fatal("Revive of a marked node failed")
	}
	if s.Len() != 5 {
		t.Fatalf("Len after marks = %d, want 5 (odd keys)", s.Len())
	}
	if got := s.MarkedLen(); got != 6 {
		t.Fatalf("MarkedLen = %d, want 6 (5 even + stale key-1 entry)", got)
	}

	// Sweep: evens unlink; the revived key-1 entry is skipped.
	if swept := s.SweepMarked(stampOf(7), 0); swept != 5 {
		t.Fatalf("swept %d nodes, want 5", swept)
	}
	keys := listKeys(&s)
	want := []uint64{1, 3, 5, 7, 9}
	if len(keys) != len(want) {
		t.Fatalf("keys after sweep = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys after sweep = %v, want %v", keys, want)
		}
	}
	if s.Get(4) != nil {
		t.Fatal("Get found a swept node")
	}
	if s.DeadLen() != 5 {
		t.Fatalf("DeadLen = %d, want 5", s.DeadLen())
	}

	// Free gated on quiescence.
	if n := s.FreeDead(never, nil, 0); n != 0 {
		t.Fatalf("FreeDead(never) freed %d", n)
	}
	resets := 0
	if n := s.FreeDead(always, func(v *int) { *v = 0; resets++ }, 0); n != 5 {
		t.Fatalf("FreeDead(always) freed %d, want 5", n)
	}
	if resets != 5 || s.PoolLen() != 5 || s.DeadLen() != 0 {
		t.Fatalf("resets=%d pool=%d dead=%d, want 5/5/0", resets, s.PoolLen(), s.DeadLen())
	}

	// New keys reuse pooled nodes.
	createdBefore := s.Created()
	for k := uint64(100); k < 105; k++ {
		n := s.GetOrCreate(k)
		if n.Key() != k {
			t.Fatalf("reused node has key %d, want %d", n.Key(), k)
		}
	}
	if s.Created() != createdBefore {
		t.Fatalf("allocated %d new nodes with a full pool", s.Created()-createdBefore)
	}
	if s.Reused() != 5 || s.PoolLen() != 0 {
		t.Fatalf("Reused=%d PoolLen=%d, want 5/0", s.Reused(), s.PoolLen())
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
}

func TestSkipListReviveAfterSweepFails(t *testing.T) {
	var s SkipList[int]
	n := s.GetOrCreate(7)
	s.MarkDeleted(n)
	s.SweepMarked(stampOf(1), 0)
	if s.Revive(n) {
		t.Fatal("Revive succeeded on a dead node")
	}
	// A fresh GetOrCreate must produce a different, live node.
	n2 := s.GetOrCreate(7)
	if n2 == n {
		t.Fatal("GetOrCreate returned the dead node")
	}
	if n2.Key() != 7 || s.Len() != 1 {
		t.Fatalf("fresh node key=%d Len=%d", n2.Key(), s.Len())
	}
}

// TestSkipListCursorSurvivesSweep checks the parked-reader contract: a node
// that is swept while a reader holds it keeps its outgoing pointers, so the
// walk continues into (what were) its successors.
func TestSkipListCursorSurvivesSweep(t *testing.T) {
	var s SkipList[int]
	for k := uint64(0); k < 10; k++ {
		s.GetOrCreate(k)
	}
	cur := s.Get(4) // reader parks here
	s.MarkDeleted(s.Get(4))
	s.MarkDeleted(s.Get(5))
	s.SweepMarked(stampOf(1), 0)
	// The parked reader continues: 4 -> 5 (dead, pointers intact) -> 6 ...
	var walked []uint64
	for n := cur.Next(); n != nil; n = n.Next() {
		walked = append(walked, n.Key())
	}
	want := []uint64{5, 6, 7, 8, 9}
	if len(walked) != len(want) {
		t.Fatalf("walk from swept node = %v, want %v", walked, want)
	}
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("walk from swept node = %v, want %v", walked, want)
		}
	}
}

// TestSkipListChurnBounded cycles a shifting key domain through
// insert/mark/sweep/free and asserts the physical node population stays
// O(live window), not O(keys ever inserted).
func TestSkipListChurnBounded(t *testing.T) {
	var s SkipList[int]
	const (
		window = 64
		total  = 20_000
	)
	for i := 0; i < total; i++ {
		k := uint64(i)
		s.GetOrCreate(k)
		if i >= window {
			old := uint64(i - window)
			if n := s.Get(old); n != nil {
				s.MarkDeleted(n)
			}
		}
		if i%128 == 0 {
			s.SweepMarked(stampOf(uint64(i)), 0)
			s.FreeDead(always, func(v *int) { *v = 0 }, 0)
		}
	}
	s.SweepMarked(stampOf(total), 0)
	s.FreeDead(always, nil, 0)
	if s.Len() != window {
		t.Fatalf("Len = %d, want %d", s.Len(), window)
	}
	phys := len(listKeys(&s))
	if phys != window {
		t.Fatalf("%d nodes physically linked, want %d", phys, window)
	}
	// Node reuse must make heap allocation O(window), not O(total).
	if c := s.Created(); c > 4*window {
		t.Fatalf("allocated %d nodes for a %d-key window over %d inserts", c, window, total)
	}
	if s.Reused() == 0 {
		t.Fatal("pool was never reused")
	}
	if d, p := s.DeadLen(), s.PoolLen(); d+p > 4*window {
		t.Fatalf("dead=%d pooled=%d nodes retained, want O(window)", d, p)
	}
}

// TestSkipListConcurrentReclaim hammers creators, lock-free readers, and a
// reclaimer whose quiescence predicate is wired to the readers' actual
// lifetimes via a reader count (a stand-in for the engines' watermark/epoch
// mechanisms); -race checks the publication and reset protocols.
func TestSkipListConcurrentReclaim(t *testing.T) {
	var s SkipList[uint64]
	var readers sync.WaitGroup
	var mu sync.Mutex // serializes mark/sweep/free (the engines' chain latches)
	const keys = 256

	stop := make(chan struct{})
	// Reclaimer: marks a sliding band of keys, sweeps, frees only while no
	// reader is running (crude but correct quiescence).
	var reclaim sync.WaitGroup
	reclaim.Add(1)
	go func() {
		defer reclaim.Done()
		stamp := uint64(0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			k := uint64(i % keys)
			if n := s.Get(k); n != nil {
				s.MarkDeleted(n)
			}
			stamp++
			s.SweepMarked(func() uint64 { stamp++; return stamp }, 8)
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed*0x9E3779B97F4A7C15 + 1
			for i := 0; i < 3000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				k := x % keys
				readers.Add(1)
				// Creator path: GetOrCreate + Revive under the "latch".
				mu.Lock()
				for {
					n := s.GetOrCreate(k)
					if s.Revive(n) {
						if n.Key() != k {
							t.Errorf("node key %d, want %d", n.Key(), k)
						}
						break
					}
				}
				mu.Unlock()
				// Reader path: short ordered walk, keys must ascend.
				prev := int64(-1)
				for n := s.Seek(x % keys); n != nil && prev < int64(n.Key()); n = n.Next() {
					prev = int64(n.Key())
				}
				readers.Done()
			}
		}(uint64(w))
	}
	wg.Wait()
	close(stop)
	reclaim.Wait()
	// All readers done: everything dead is quiescent now.
	s.FreeDead(always, func(v *uint64) { *v = 0 }, 0)
	// Structure must still be sorted and duplicate-free.
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
}

// TestSkipListReclaimRoundAllocs: once warmed, a reclamation round — 32 keys
// created from the reuse pool, marked, swept and freed back to the pool —
// allocates nothing. The sweep batch is a scratch slice kept under the
// insertion latch, and the dead nodes wait in a Limbo whose drain copies
// nothing out.
func TestSkipListReclaimRoundAllocs(t *testing.T) {
	var s SkipList[int]
	for k := uint64(0); k < 256; k += 2 {
		s.GetOrCreate(k) // live neighbours for the sweep's descents
	}
	var stamp uint64
	next := func() uint64 { stamp++; return stamp }
	round := func() {
		for k := uint64(1); k < 64; k += 2 {
			n := s.GetOrCreate(k)
			s.Revive(n)
			s.MarkDeleted(n)
		}
		if n := s.SweepMarked(next, 0); n != 32 {
			t.Fatalf("swept %d, want 32", n)
		}
		if n := s.FreeDead(always, func(v *int) { *v = 0 }, 0); n != 32 {
			t.Fatalf("freed %d, want 32", n)
		}
	}
	for range 4 {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%.1f allocations per warmed reclaim round, want 0", allocs)
	}
}
