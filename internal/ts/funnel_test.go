package ts

import (
	"runtime"
	"sort"
	"sync"
	"testing"
)

// TestFunnelSequential: with a single goroutine the funnel behaves exactly
// like the bare oracle — every draw is direct, no batches form.
func TestFunnelSequential(t *testing.T) {
	var o Oracle
	f := NewFunnel(&o)
	for want := uint64(1); want <= 3; want++ {
		if got := f.Next(); got != want {
			t.Fatalf("draw = %d, want %d", got, want)
		}
	}
	s := f.Stats()
	if s.Draws != 3 || s.Physical != 3 || s.Combined != 0 || s.Batches != 0 {
		t.Fatalf("sequential stats = %+v, want 3 draws, 3 physical, no combining", s)
	}
	if r := s.Ratio(); r != 1 {
		t.Fatalf("sequential ratio = %v, want 1", r)
	}
}

// TestFunnelCombineDeterministic forces one combining round by hand: with
// the funnel lock held, two goroutines enroll as waiters; the lock holder
// then runs a round and must serve both with a single fetch-and-add.
func TestFunnelCombineDeterministic(t *testing.T) {
	var o Oracle
	f := NewFunnel(&o)

	f.mu.Lock() // stand in for a draw in flight

	var wg sync.WaitGroup
	results := make([]uint64, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = f.Next()
		}(i)
	}
	// Wait until both waiters are enrolled. Their TryLock always fails (we
	// hold the lock), so they cannot serve themselves.
	for {
		n := 0
		for w := f.head.Load(); w != nil; w = w.next {
			n++
		}
		if n == 2 {
			break
		}
		runtime.Gosched()
	}

	// Run the round as the combiner with a request of our own.
	start := f.combine(true, false) // combine unlocks f.mu
	wg.Wait()

	if start != 1 {
		t.Fatalf("combiner start = %d, want 1", start)
	}
	// One fetch-and-add covered all three timestamps.
	if got := o.Current(); got != 3 {
		t.Fatalf("oracle after combined round = %d, want 3", got)
	}
	// The three draws are exactly {1, 2, 3}.
	got := append([]uint64{start}, results...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("draws = %v, want [1 2 3]", got)
		}
	}
	s := f.Stats()
	if s.Physical != 1 || s.Draws != 3 || s.Combined != 2 || s.Batches != 1 {
		t.Fatalf("combined stats = %+v, want 1 physical, 3 draws, 2 combined, 1 batch", s)
	}
	if r := s.Ratio(); r != 3 {
		t.Fatalf("ratio = %v, want 3", r)
	}
}

// TestFunnelWaiterSelfService: a waiter enrolled behind a stalled combiner
// must eventually serve itself once the lock frees — no draw may depend on
// another draw arriving.
func TestFunnelWaiterSelfService(t *testing.T) {
	var o Oracle
	f := NewFunnel(&o)

	f.mu.Lock()
	done := make(chan uint64)
	go func() { done <- f.Next() }()
	for f.head.Load() == nil {
		runtime.Gosched()
	}
	// Drop the lock WITHOUT running a round: the waiter must lock, drain
	// the stack (finding itself), and complete on its own.
	f.mu.Unlock()
	if got := <-done; got != 1 {
		t.Fatalf("self-served draw = %d, want 1", got)
	}
}

// TestFunnelStress: many goroutines drawing concurrently (windowed and
// locked draws mixed) must receive globally unique, per-goroutine monotone
// timestamps that never exceed the oracle, and the stats must account for
// every draw.
func TestFunnelStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var o Oracle
	f := NewFunnel(&o)

	const workers = 8
	const draws = 5000
	stamps := make([][]uint64, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]uint64, 0, draws)
			for i := 0; i < draws; i++ {
				if (i+w)%3 == 0 {
					mine = append(mine, f.NextLocked())
				} else {
					mine = append(mine, f.Next())
				}
			}
			stamps[w] = mine
		}(w)
	}
	wg.Wait()

	total := uint64(workers * draws)
	seen := make(map[uint64]bool)
	for w := range stamps {
		prev := uint64(0)
		for _, s := range stamps[w] {
			if s == 0 {
				t.Fatalf("worker %d drew 0", w)
			}
			if s <= prev {
				t.Fatalf("worker %d: draw %d not after previous draw %d", w, s, prev)
			}
			if seen[s] {
				t.Fatalf("timestamp %d issued twice", s)
			}
			seen[s] = true
			prev = s
		}
	}
	if cur := o.Current(); cur < total {
		t.Fatalf("oracle at %d but %d timestamps issued", cur, total)
	}
	s := f.Stats()
	if s.Draws != workers*draws {
		t.Fatalf("stats.Draws = %d, want %d", s.Draws, workers*draws)
	}
	// Every draw is either a physical fetch-and-add or rode one; a waiter
	// that self-serves counts in both, so the two sides bound Draws rather
	// than partitioning it exactly.
	if s.Draws < s.Physical || s.Draws > s.Physical+s.Combined {
		t.Fatalf("stats out of bounds: physical %d, combined %d, draws %d",
			s.Physical, s.Combined, s.Draws)
	}
	t.Logf("stress: %d draws, %d physical, %d combined in %d batches (ratio %.2f)",
		s.Draws, s.Physical, s.Combined, s.Batches, s.Ratio())
}
