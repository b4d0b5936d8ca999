package gc

import (
	"sync"
	"testing"
)

func TestPinsAcquireReleaseMin(t *testing.T) {
	var p ReaderPins
	p.Init(0)
	if p.Slots() < DefaultPinSlots {
		t.Fatalf("Slots = %d, want at least %d", p.Slots(), DefaultPinSlots)
	}
	if m := p.Min(100); m != 100 {
		t.Fatalf("empty Min = %d, want bound 100", m)
	}
	a := p.Acquire(40)
	b := p.Acquire(60)
	if a < 0 || b < 0 {
		t.Fatalf("Acquire failed with free slots: %d %d", a, b)
	}
	if m := p.Min(100); m != 40 {
		t.Fatalf("Min = %d, want 40", m)
	}
	if m := p.Min(30); m != 30 {
		t.Fatalf("Min with smaller bound = %d, want 30", m)
	}
	p.Release(a)
	if m := p.Min(100); m != 60 {
		t.Fatalf("Min after release = %d, want 60", m)
	}
	p.Release(b)
	if m := p.Min(100); m != 100 {
		t.Fatalf("Min after all released = %d, want 100", m)
	}
}

// TestPinsMinCacheInvalidation: a pin published after a Min must be seen by
// the next Min, and its release must lift the minimum back. Min keeps no
// cache; the test guards that it never answers from a stale one.
func TestPinsMinCacheInvalidation(t *testing.T) {
	var p ReaderPins
	p.Init(0)
	a := p.Acquire(50)
	if m := p.Min(100); m != 50 {
		t.Fatalf("Min = %d, want 50", m)
	}
	b := p.Acquire(20)
	if m := p.Min(100); m != 20 {
		t.Fatalf("Min after new pin = %d, want 20", m)
	}
	p.Release(b)
	if m := p.Min(100); m != 50 {
		t.Fatalf("Min after release = %d, want 50", m)
	}
	p.Release(a)
}

func TestPinsZeroPromoted(t *testing.T) {
	var p ReaderPins
	p.Init(0)
	s := p.Acquire(0)
	if s < 0 {
		t.Fatal("Acquire(0) failed")
	}
	// The slot must not look free (value 0 is the free sentinel).
	if m := p.Min(100); m != 1 {
		t.Fatalf("Min = %d, want promoted pin 1", m)
	}
	p.Release(s)
}

func TestPinsOverflow(t *testing.T) {
	var p ReaderPins
	p.Init(0)
	total := p.Slots()
	slots := make([]int, 0, total)
	for i := 0; i < total; i++ {
		s := p.Acquire(uint64(i + 1))
		if s < 0 {
			t.Fatalf("Acquire %d failed before the table was full", i)
		}
		slots = append(slots, s)
	}
	if s := p.Acquire(999); s != -1 {
		t.Fatalf("Acquire on full table = %d, want -1", s)
	}
	if p.Overflows() != 1 {
		t.Fatalf("Overflows = %d, want 1", p.Overflows())
	}
	p.Release(slots[17])
	if s := p.Acquire(999); s < 0 {
		t.Fatal("Acquire after release failed")
	}
}

// TestPinsDistinctSlots: every Acquire must claim a distinct slot, until
// the table Init sized for this machine is full.
func TestPinsDistinctSlots(t *testing.T) {
	var p ReaderPins
	p.Init(0)
	total := p.Slots()
	seen := make(map[int]bool, total)
	for i := 0; i < total; i++ {
		s := p.Acquire(uint64(i + 1))
		if s < 0 {
			t.Fatalf("Acquire %d overflowed with %d slots", i, total)
		}
		if seen[s] {
			t.Fatalf("slot %d claimed twice", s)
		}
		seen[s] = true
	}
}

// TestPinsHintAffinity: after a release, the very next acquire on the same
// goroutine (hence, absent migration, the same P) should get the released
// slot back through the hint pool.
func TestPinsHintAffinity(t *testing.T) {
	var p ReaderPins
	p.Init(0)
	s := p.Acquire(10)
	if s < 0 {
		t.Fatal("Acquire failed")
	}
	p.Release(s)
	// Not guaranteed by the API (the runtime may purge the pool or migrate
	// the goroutine), so observe rather than assert-fail hard: on a quiet
	// test process this reliably hits.
	s2 := p.Acquire(11)
	if s2 != s {
		t.Logf("hint missed: got slot %d after releasing %d (legal, but unexpected on an idle box)", s2, s)
	}
	p.Release(s2)
}

func TestPinsConcurrent(t *testing.T) {
	var p ReaderPins
	p.Init(0)
	const workers = 16
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rt := uint64(w*iters + i + 1)
				s := p.Acquire(rt)
				if s < 0 {
					continue // table momentarily full; acceptable
				}
				if m := p.Min(rt + 1000); m > rt {
					t.Errorf("Min = %d > own pin %d", m, rt)
				}
				p.Release(s)
			}
		}(w)
	}
	wg.Wait()
	if m := p.Min(42); m != 42 {
		t.Fatalf("Min after quiesce = %d, want 42", m)
	}
}
