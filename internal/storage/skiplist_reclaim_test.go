package storage

import (
	"runtime"
	"sync"
	"testing"
	"weak"
)

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
	if swept := s.SweepMarked(0); swept != 5 {
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
	if s.Get(4) != nil || s.MarkedLen() != 0 {
		t.Fatalf("after sweep Get(4) = %v, MarkedLen = %d", s.Get(4), s.MarkedLen())
	}

	// New keys, and the swept keys again, get fresh nodes: a swept node is
	// never handed out a second time.
	createdBefore := s.Created()
	for _, k := range []uint64{100, 101, 102, 4, 6} {
		if n := s.GetOrCreate(k); n.Key() != k || !s.Revive(n) {
			t.Fatalf("GetOrCreate(%d) returned key %d", k, n.Key())
		}
	}
	if c := s.Created() - createdBefore; c != 5 {
		t.Fatalf("created %d nodes for 5 new keys, want 5", c)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
}

func TestSkipListReviveAfterSweepFails(t *testing.T) {
	var s SkipList[int]
	n := s.GetOrCreate(7)
	s.MarkDeleted(n)
	s.SweepMarked(0)
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

// markAndWatch marks the node of every key in keys deleted and returns weak
// pointers to them, so the caller holds no strong reference to the nodes.
func markAndWatch[V any](s *SkipList[V], keys []uint64) []weak.Pointer[SkipNode[V]] {
	ws := make([]weak.Pointer[SkipNode[V]], len(keys))
	for i, k := range keys {
		n := s.Get(k)
		s.MarkDeleted(n)
		ws[i] = weak.Make(n)
	}
	return ws
}

// countLive returns how many of ws still point at an object.
func countLive[T any](ws []weak.Pointer[T]) int {
	live := 0
	for _, w := range ws {
		if w.Value() != nil {
			live++
		}
	}
	return live
}

// TestSkipListSweptNodesCollected checks that the list keeps no reference to
// a node once it is swept: with no reader holding one, every swept node is
// garbage at the next collection, while the nodes still linked survive.
func TestSkipListSweptNodesCollected(t *testing.T) {
	var s SkipList[int]
	var odd, even []uint64
	for k := uint64(0); k < 512; k++ {
		s.GetOrCreate(k)
		if k%2 == 1 {
			odd = append(odd, k)
		} else {
			even = append(even, k)
		}
	}
	swept := markAndWatch(&s, odd)
	linked := make([]weak.Pointer[SkipNode[int]], len(even))
	for i, k := range even {
		linked[i] = weak.Make(s.Get(k))
	}
	if n := s.SweepMarked(0); n != len(odd) {
		t.Fatalf("swept %d nodes, want %d", n, len(odd))
	}
	runtime.GC()
	if live := countLive(swept); live != 0 {
		t.Fatalf("%d of %d swept nodes survived a collection", live, len(swept))
	}
	if live := countLive(linked); live != len(linked) {
		t.Fatalf("%d of %d linked nodes survived a collection", live, len(linked))
	}
	runtime.KeepAlive(&s)
}

// TestSkipListCursorSurvivesSweep checks the parked-reader contract: a node
// that is swept while a reader holds it keeps its outgoing pointers, and the
// reader's pointer alone keeps it and the dead nodes after it alive, so the
// walk continues into (what were) its successors. Once the reader lets go,
// the nodes are garbage.
func TestSkipListCursorSurvivesSweep(t *testing.T) {
	var s SkipList[int]
	for k := uint64(0); k < 10; k++ {
		s.GetOrCreate(k)
	}
	cur := s.Get(4) // reader parks here
	dead := markAndWatch(&s, []uint64{4, 5})
	s.SweepMarked(0)
	runtime.GC()
	if live := countLive(dead); live != 2 {
		t.Fatalf("%d of the 2 swept nodes a parked reader reaches survived a collection", live)
	}
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
	cur = nil
	runtime.GC()
	if live := countLive(dead); live != 0 {
		t.Fatalf("%d swept nodes survived the reader", live)
	}
	runtime.KeepAlive(&s)
}

// TestSkipListChurnBounded cycles a shifting key domain through
// insert/mark/sweep and asserts the linked node population stays O(live
// window), not O(keys ever inserted).
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
			s.SweepMarked(0)
		}
	}
	s.SweepMarked(0)
	if s.Len() != window {
		t.Fatalf("Len = %d, want %d", s.Len(), window)
	}
	phys := len(listKeys(&s))
	if phys != window {
		t.Fatalf("%d nodes physically linked, want %d", phys, window)
	}
	if m := s.MarkedLen(); m != 0 {
		t.Fatalf("%d marked nodes left after the final sweep", m)
	}
	if c := s.Created(); c != total {
		t.Fatalf("created %d nodes for %d new keys", c, total)
	}
}

// TestSkipListConcurrentReclaim hammers creators, lock-free readers, and a
// reclaimer that marks and sweeps while they run; -race checks the
// publication and unlink protocols.
func TestSkipListConcurrentReclaim(t *testing.T) {
	var s SkipList[uint64]
	var mu sync.Mutex // serializes mark/revive (the engines' chain latches)
	const keys = 256

	stop := make(chan struct{})
	// Reclaimer: marks a sliding band of keys and sweeps.
	var reclaim sync.WaitGroup
	reclaim.Add(1)
	go func() {
		defer reclaim.Done()
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
			s.SweepMarked(8)
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
			}
		}(uint64(w))
	}
	wg.Wait()
	close(stop)
	reclaim.Wait()
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

// TestSkipListReclaimRoundAllocs: once warmed, a reclamation round — 32 new
// keys created, marked and swept — allocates exactly the 32 nodes and
// nothing else. The marked queue and the sweep batch are kept across rounds.
func TestSkipListReclaimRoundAllocs(t *testing.T) {
	var s SkipList[int]
	for k := uint64(0); k < 256; k += 2 {
		s.GetOrCreate(k) // live neighbours for the sweep's descents
	}
	round := func() {
		for k := uint64(1); k < 64; k += 2 {
			n := s.GetOrCreate(k)
			s.Revive(n)
			s.MarkDeleted(n)
		}
		if n := s.SweepMarked(0); n != 32 {
			t.Fatalf("swept %d, want 32", n)
		}
	}
	for range 4 {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 32 {
		t.Fatalf("%.1f allocations per warmed reclaim round, want 32 (the nodes)", allocs)
	}
}
