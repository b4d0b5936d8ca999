package gc

import "testing"

func TestEpochQuiesce(t *testing.T) {
	var e Epoch
	e.Init(4)

	// A stamp never quiesces in its own epoch (the bound is the clock).
	s1 := e.Stamp()
	if e.Quiesced(s1) {
		t.Fatal("stamp quiesced without a later epoch")
	}
	s2 := e.Stamp()
	if !e.Quiesced(s1) {
		t.Fatal("s1 not quiesced with no pins and a later epoch")
	}

	// A reader pinned before the next stamp blocks it.
	slot := e.Enter()
	if slot < 0 {
		t.Fatal("Enter overflowed a 4-slot table")
	}
	s3 := e.Stamp()
	if e.Quiesced(s3) {
		t.Fatal("s3 quiesced under a pin published before it")
	}
	// s2 < pin value (clock was s2 when the reader entered, pin = s2+1 = s3),
	// so s2 is still blocked too: pin !> s2 is false? pin = s3 > s2, so s2
	// quiesces — the reader entered after s2's batch was unlinked.
	if !e.Quiesced(s2) {
		t.Fatal("s2 blocked by a reader that entered after it")
	}
	e.Exit(slot)
	e.Stamp() // s3 needs a later epoch before it can quiesce
	if !e.Quiesced(s3) {
		t.Fatal("s3 not quiesced after exit and a later epoch")
	}
}

func TestEpochOverflowFallback(t *testing.T) {
	var e Epoch
	e.Init(1)
	// The striped pin table has a per-stripe capacity floor, so fill it
	// completely before forcing the overflow path.
	total := e.pins.Slots()
	held := make([]int, 0, total)
	for i := 0; i < total; i++ {
		s := e.Enter()
		if s < 0 {
			t.Fatalf("Enter %d overflowed before the table was full", i)
		}
		held = append(held, s)
	}
	b := e.Enter() // table full: unpinned fallback
	if b >= 0 {
		t.Fatal("Enter got a slot in a full table")
	}
	if e.Overflows() != 1 {
		t.Fatalf("Overflows = %d, want 1", e.Overflows())
	}
	for _, s := range held {
		e.Exit(s)
	}
	s := e.Stamp()
	e.Stamp()
	if e.Quiesced(s) {
		t.Fatal("unpinned reader did not block quiescence")
	}
	e.Exit(b)
	if !e.Quiesced(s) {
		t.Fatal("quiescence blocked after all readers exited")
	}
}
