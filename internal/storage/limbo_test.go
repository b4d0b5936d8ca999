package storage

import (
	"sync"
	"sync/atomic"
	"testing"
)

// always / never are quiescence predicates for single-threaded tests.
func always(uint64) bool { return true }
func never(uint64) bool  { return false }

// drainAll drains l with quiesced and returns what it freed, in order.
func drainAll(l *Limbo[int], quiesced func(uint64) bool, max int) []int {
	var got []int
	l.Drain(quiesced, max, func(x int) { got = append(got, x) })
	return got
}

func TestLimboFIFO(t *testing.T) {
	var l Limbo[int]
	for i := 0; i < 100; i++ {
		if !l.Defer(i, uint64(i)) {
			t.Fatalf("Defer %d refused by an unbounded Limbo", i)
		}
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d, want 100", l.Len())
	}
	got := drainAll(&l, always, 0)
	if len(got) != 100 {
		t.Fatalf("drained %d, want 100", len(got))
	}
	for i, x := range got {
		if x != i {
			t.Fatalf("drained %v..., want deferral order", got[:i+1])
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after a full drain", l.Len())
	}
}

// TestLimboDrainStops: Drain stops at the first stamp that has not quiesced,
// even when later entries have, and frees no more than max.
func TestLimboDrainStops(t *testing.T) {
	var l Limbo[int]
	for _, st := range []uint64{1, 2, 3, 9, 4, 5} {
		l.Defer(int(st), st)
	}
	below := func(wm uint64) func(uint64) bool {
		return func(st uint64) bool { return st < wm }
	}
	if got := drainAll(&l, below(6), 2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Drain(max 2) freed %v, want [1 2]", got)
	}
	if got := drainAll(&l, below(6), 0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Drain freed %v, want [3]: stamp 9 blocks 4 and 5 behind it", got)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if got := drainAll(&l, never, 0); len(got) != 0 {
		t.Fatalf("Drain(never) freed %v", got)
	}
	if got := drainAll(&l, below(10), 0); len(got) != 3 || got[0] != 9 || got[2] != 5 {
		t.Fatalf("Drain freed %v, want [9 4 5]", got)
	}

	// Max across several lock batches.
	for i := 0; i < 3*limboBatch; i++ {
		l.Defer(i, 1)
	}
	if n := l.Drain(always, limboBatch+5, func(int) {}); n != limboBatch+5 {
		t.Fatalf("Drain(max %d) freed %d", limboBatch+5, n)
	}
	if l.Len() != 2*limboBatch-5 {
		t.Fatalf("Len = %d, want %d", l.Len(), 2*limboBatch-5)
	}
}

// TestLimboCap: a Defer at the cap keeps nothing and allocates nothing, and
// draining makes room again.
func TestLimboCap(t *testing.T) {
	l := Limbo[*int]{Cap: 4}
	x := new(int)
	for i := 0; i < 4; i++ {
		if !l.Defer(x, 1) {
			t.Fatalf("Defer %d refused below the cap", i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if l.Defer(x, 1) {
			t.Fatal("Defer accepted at the cap")
		}
	}); allocs != 0 {
		t.Fatalf("Defer at the cap: %.1f allocations, want 0", allocs)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	l.Drain(always, 1, func(*int) {})
	if !l.Defer(x, 1) {
		t.Fatal("Defer refused after a drain made room")
	}
}

// TestLimboConcurrent: under concurrent Defer and Drain (run with -race),
// every object is freed exactly once or was refused at the cap.
func TestLimboConcurrent(t *testing.T) {
	const (
		deferrers = 4
		per       = 5000
	)
	l := Limbo[int]{Cap: 1000}
	var clock atomic.Uint64
	freed := make([]atomic.Int32, deferrers*per)
	var dropped atomic.Int64
	var stop atomic.Bool
	free := func(x int) { freed[x].Add(1) }
	var wg, drainers sync.WaitGroup
	for d := 0; d < deferrers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if !l.Defer(d*per+i, clock.Add(1)) {
					dropped.Add(1)
				}
			}
		}(d)
	}
	for r := 0; r < 2; r++ {
		drainers.Add(1)
		go func() {
			defer drainers.Done()
			for !stop.Load() {
				wm := max(clock.Load(), 8) - 8 // lag behind the deferrers
				l.Drain(func(st uint64) bool { return st < wm }, 64, free)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	drainers.Wait()
	l.Drain(always, 0, free)
	n := int64(0)
	for i := range freed {
		switch c := freed[i].Load(); c {
		case 0:
		case 1:
			n++
		default:
			t.Fatalf("object %d freed %d times", i, c)
		}
	}
	if n+dropped.Load() != deferrers*per {
		t.Fatalf("freed %d + dropped %d != deferred %d", n, dropped.Load(), deferrers*per)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after the final drain", l.Len())
	}
}
