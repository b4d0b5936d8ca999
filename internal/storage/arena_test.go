package storage

import (
	"bytes"
	"testing"
)

func TestArenaClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{1, -1}, {InlinePayload, -1}, // inline-sized: not served
		{InlinePayload + 1, 0}, {64, 0}, {65, 1}, {128, 1},
		{129, 2}, {256, 2}, {4096, 6}, {4097, 7}, {8192, 7},
		{8193, -1}, // beyond the largest class
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestArenaGetPutReuse(t *testing.T) {
	var a PayloadArena
	b1 := a.Get(100)
	if len(b1) != 100 || cap(b1) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100/128", len(b1), cap(b1))
	}
	a.Put(b1)
	b2 := a.Get(120)
	if len(b2) != 120 {
		t.Fatalf("Get(120) after Put: len %d", len(b2))
	}
	if &b1[:1][0] != &b2[:1][0] {
		t.Fatal("recycled Get did not reuse the freed block")
	}
	if a.Reuses() != 1 {
		t.Fatalf("Reuses = %d, want 1", a.Reuses())
	}
}

func TestArenaUnservedSizes(t *testing.T) {
	var a PayloadArena
	if b := a.Get(InlinePayload); b != nil {
		t.Fatal("arena served an inline-sized payload")
	}
	if b := a.Get(arenaMaxClass + 1); b != nil {
		t.Fatal("arena served an oversized payload")
	}
	// Put of a foreign block (non-class capacity) must be ignored, not panic.
	a.Put(make([]byte, 100))
	if b := a.Get(100); cap(b) != 128 || len(b) != 100 {
		t.Fatalf("foreign Put corrupted the class: len %d cap %d", len(b), cap(b))
	}
}

func TestVersionArenaPayloadRecycled(t *testing.T) {
	var a PayloadArena
	var p VersionPool
	payload := bytes.Repeat([]byte{0xAB}, 200)
	v := p.GetIn(&a, payload, 1, 1, 2)
	if !bytes.Equal(v.Payload(), payload) {
		t.Fatal("arena-backed payload mismatch")
	}
	if &v.Payload()[0] == &payload[0] {
		t.Fatal("large payload retained by reference despite arena")
	}
	// Mutating the caller's slice must not affect the version.
	payload[0] = 0xCD
	if v.Payload()[0] != 0xAB {
		t.Fatal("version payload aliases the caller's buffer")
	}
	p.Put(v)
	// The block must have returned to the arena: next same-class Get reuses.
	if a.Reuses() != 0 {
		t.Fatalf("Reuses = %d before any Get", a.Reuses())
	}
	b := a.Get(200)
	if a.Reuses() != 1 {
		t.Fatalf("Put on version recycle did not return the block (reuses=%d)", a.Reuses())
	}
	_ = b
	// A version rearmed in place, without passing through Put, returns its
	// block as well.
	w := p.GetIn(&a, payload, 1, 1, 2)
	w.ResetIn(&a, []byte("small"), 1, 1, 2)
	a.Get(200)
	if a.Reuses() != 2 {
		t.Fatalf("ResetIn over an arena payload did not return the block (reuses=%d)", a.Reuses())
	}
}

func TestVersionInlineStillInline(t *testing.T) {
	var a PayloadArena
	var p VersionPool
	small := []byte("hello")
	v := p.GetIn(&a, small, 1, 1, 2)
	if &v.Payload()[0] != &v.inline[0] {
		t.Fatal("small payload not inlined when an arena is present")
	}
	p.Put(v)
}

// TestArenaChunkRelease verifies that fully-empty, fully-carved chunks are
// handed back to the allocator (minus one spare per class).
func TestArenaChunkRelease(t *testing.T) {
	var a PayloadArena
	const size = 1024             // class 4
	perChunk := arenaChunk / size // blocks per chunk
	nBlocks := perChunk * 3       // three full chunks
	blocks := make([][]byte, 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		blocks = append(blocks, a.Get(size))
	}
	if got := a.LiveChunks(); got != 3 {
		t.Fatalf("LiveChunks after carve = %d, want 3", got)
	}
	for _, b := range blocks {
		a.Put(b)
	}
	if got := a.ReleasedChunks(); got != 2 {
		t.Fatalf("ReleasedChunks = %d, want 2 (one spare retained)", got)
	}
	if got := a.LiveChunks(); got != 1 {
		t.Fatalf("LiveChunks after drain = %d, want 1", got)
	}
	// The spare still serves without a fresh allocation.
	b := a.Get(size)
	if b == nil {
		t.Fatal("spare chunk did not serve")
	}
	a.Put(b)
}

// TestArenaForeignPut verifies that blocks not carved from any live chunk
// are ignored rather than adopted.
func TestArenaForeignPut(t *testing.T) {
	var a PayloadArena
	foreign := make([]byte, 0, 128)
	a.Put(foreign)
	if n := a.Get(100); n == nil {
		t.Fatal("Get failed")
	} else if a.Reuses() != 0 {
		t.Fatal("foreign block was adopted into the free list")
	}
}
