package ts

import (
	"sync"
	"testing"
)

func TestNextMonotonic(t *testing.T) {
	var o Oracle
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		n := o.Next()
		if n <= prev {
			t.Fatalf("Next not monotonic: %d after %d", n, prev)
		}
		prev = n
	}
}

func TestFirstTimestampIsOne(t *testing.T) {
	var o Oracle
	if got := o.Next(); got != 1 {
		t.Fatalf("first timestamp = %d, want 1", got)
	}
}

func TestCurrentTracksNext(t *testing.T) {
	var o Oracle
	if o.Current() != 0 {
		t.Fatal("fresh oracle Current != 0")
	}
	n := o.Next()
	if o.Current() != n {
		t.Fatalf("Current = %d after Next = %d", o.Current(), n)
	}
}

func TestConcurrentUniqueness(t *testing.T) {
	var o Oracle
	const workers = 8
	const perWorker = 10000
	results := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]uint64, perWorker)
			for i := range out {
				out[i] = o.Next()
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool, workers*perWorker)
	for _, r := range results {
		for _, v := range r {
			if seen[v] {
				t.Fatalf("duplicate timestamp %d", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("expected %d unique, got %d", workers*perWorker, len(seen))
	}
}

func TestAdvanceTo(t *testing.T) {
	var o Oracle
	o.AdvanceTo(100)
	if o.Current() != 100 {
		t.Fatalf("Current = %d after AdvanceTo(100)", o.Current())
	}
	o.AdvanceTo(50) // must not go backwards
	if o.Current() != 100 {
		t.Fatalf("AdvanceTo went backwards: %d", o.Current())
	}
	if n := o.Next(); n != 101 {
		t.Fatalf("Next after AdvanceTo = %d, want 101", n)
	}
}
