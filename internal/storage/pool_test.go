package storage

import (
	"bytes"
	"testing"

	"repro/internal/field"
)

func TestVersionInlinePayloadCopied(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	v := NewVersion(src, 1, field.FromTS(1), field.FromTS(field.Infinity))
	src[0] = 99 // caller reuses its buffer; the version must be unaffected
	if !bytes.Equal(v.Payload(), []byte{1, 2, 3, 4}) {
		t.Fatalf("inline payload aliases the caller's buffer: %v", v.Payload())
	}
	big := make([]byte, InlinePayload+1)
	big[0] = 7
	vb := NewVersion(big, 1, field.FromTS(1), field.FromTS(field.Infinity))
	if &vb.Payload()[0] != &big[0] {
		t.Fatal("oversized payload should be retained by reference, not copied")
	}
}

// TestVersionInlineStillInline: a payload that fits the inline buffer is
// copied into it on the pool's path too, not kept by reference.
func TestVersionInlineStillInline(t *testing.T) {
	var p VersionPool
	small := []byte("hello")
	v := p.Get(small, 1, 1, 2)
	if &v.Payload()[0] != &v.inline[0] {
		t.Fatal("small payload not inlined")
	}
	p.Put(v)
}

// TestArenaUnservedSizes pins the empty PayloadArena's contract, which the
// benchmark module's probe relies on: Get serves no size and Put ignores
// any block.
func TestArenaUnservedSizes(t *testing.T) {
	var tbl Table
	a := tbl.Arena()
	for _, n := range []int{0, InlinePayload, InlinePayload + 1, 256, 8 << 10, 8<<10 + 1} {
		if b := a.Get(n); b != nil {
			t.Fatalf("Get(%d) served a %d-byte block", n, cap(b))
		}
	}
	a.Put(nil)
	a.Put(make([]byte, 100, 128))
}

func TestVersionPoolReuse(t *testing.T) {
	var p VersionPool
	v1 := p.Get([]byte{1, 1, 1}, 3, field.FromTS(5), field.FromTS(field.Infinity))
	if v1.Next(2) != nil {
		t.Fatal("fresh version has dirty spill slots")
	}
	v1.key0 = 42
	v1.setNext(0, v1)
	v1.setNext(2, v1)
	v1.MarkUnlinked()
	p.Put(v1)
	v2 := p.Get([]byte{9, 9}, 1, field.FromTS(7), field.FromTS(9))
	if v2 != v1 {
		t.Skip("pool did not return the recycled object")
	}
	if !bytes.Equal(v2.Payload(), []byte{9, 9}) {
		t.Fatalf("payload not reset: %v", v2.Payload())
	}
	if v2.Next(0) != nil || v2.Key(0) != 0 {
		t.Fatal("chain pointer or cached key survived recycling")
	}
	if field.TS(v2.Begin()) != 7 || field.TS(v2.End()) != 9 {
		t.Fatalf("begin/end not reset: %d/%d", v2.Begin(), v2.End())
	}
	if !v2.MarkUnlinked() {
		t.Fatal("unlinked flag survived recycling")
	}
	if p.Reuses() == 0 {
		t.Fatal("reuse counter not incremented")
	}
}

func TestAppendHolders(t *testing.T) {
	blt := NewBucketLockTable()
	ix := &HashIndex{buckets: make([]Bucket, 1)}
	b := ix.BucketAt(0)
	blt.Acquire(b, 1)
	blt.Acquire(b, 2)
	buf := make([]uint64, 0, 8)
	got := blt.AppendHolders(buf[:0], b)
	if len(got) != 2 || &got[0] != &buf[:1][0] {
		t.Fatalf("AppendHolders did not reuse the caller's buffer: %v", got)
	}
	// A second call with the same buffer must not allocate or accumulate.
	got = blt.AppendHolders(got[:0], b)
	if len(got) != 2 {
		t.Fatalf("holders = %v", got)
	}
	blt.Release(b, 1)
	blt.Release(b, 2)
	if got = blt.AppendHolders(got[:0], b); len(got) != 0 {
		t.Fatalf("holders after release = %v", got)
	}
}
