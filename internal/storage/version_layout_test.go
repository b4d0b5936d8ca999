package storage

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/field"
)

// TestVersionSize pins the two-line layout, so a field added to the version
// fails here rather than quietly pushing it into the next size class or the
// chain words onto a second line.
func TestVersionSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	var v Version
	if got := unsafe.Sizeof(v); got != 128 {
		t.Fatalf("Version is %d bytes, want 128", got)
	}
	// Line 0: everything a chain walk and a visibility check read.
	for name, off := range map[string]uintptr{
		"begin": unsafe.Offsetof(v.begin), "end": unsafe.Offsetof(v.end),
		"next0": unsafe.Offsetof(v.next0), "next1": unsafe.Offsetof(v.next1),
		"key0": unsafe.Offsetof(v.key0), "key1": unsafe.Offsetof(v.key1),
		"payload": unsafe.Offsetof(v.payload), "plen": unsafe.Offsetof(v.plen),
		"unlinked": unsafe.Offsetof(v.unlinked),
	} {
		if off >= 64 {
			t.Errorf("Version.%s at offset %d is off the first cache line", name, off)
		}
	}
	// Line 1: the extension pointer and the inline payload, to the end.
	if off := unsafe.Offsetof(v.ext); off != 64 {
		t.Errorf("Version.ext at offset %d, want 64", off)
	}
	if end := unsafe.Offsetof(v.inline) + InlinePayload; end != 128 {
		t.Errorf("inline payload ends at %d, want 128", end)
	}
}

// TestVersionCacheLineAligned checks what the layout relies on: the 128-byte
// size class hands out 128-byte-aligned objects, so line 0 of every version
// is one hardware cache line.
func TestVersionCacheLineAligned(t *testing.T) {
	vs := make([]*Version, 1000)
	for i := range vs {
		vs[i] = NewVersion(pay(uint64(i)), 1, field.FromTS(1), field.FromTS(field.Infinity))
		if a := uintptr(unsafe.Pointer(vs[i])); a%128 != 0 {
			t.Fatalf("version %d at %#x is not 128-byte aligned", i, a)
		}
	}
}

// TestVersionPayloadCapacity checks that Payload's capacity is its length
// for inline and by-reference payloads alike, so an append by a caller
// copies instead of writing into the version's inline buffer or past the
// caller's slice.
func TestVersionPayloadCapacity(t *testing.T) {
	for _, n := range []int{0, 8, InlinePayload, InlinePayload + 1, 200} {
		src := bytes.Repeat([]byte{0x5A}, n)
		v := new(Version)
		v.Reset(src, 1, field.FromTS(1), field.FromTS(field.Infinity))
		p := v.Payload()
		if len(p) != n || cap(p) != n || !bytes.Equal(p, src) {
			t.Fatalf("n=%d: payload len %d cap %d", n, len(p), cap(p))
		}
		_ = append(p, 0xFF)
		if got := v.Payload(); !bytes.Equal(got, src) {
			t.Fatalf("n=%d: append through Payload changed the version", n)
		}
		if n < InlinePayload && v.inline[n] != 0 {
			t.Fatalf("n=%d: append wrote into the inline buffer", n)
		}
	}
	if v := NewVersion(nil, 1, 1, 2); v.Payload() == nil {
		t.Fatal("an empty payload reads as nil")
	}
}

// TestVersionRetainedPayload checks that a payload retained by reference
// (too big for the inline buffer) is kept alive by the version
// alone, and released when the version is recycled.
func TestVersionRetainedPayload(t *testing.T) {
	var p VersionPool
	big := bytes.Repeat([]byte{7}, 4096)
	w := weak.Make(&big[0])
	v := p.Get(big, 1, field.FromTS(1), field.FromTS(field.Infinity))
	big = nil
	runtime.GC()
	if w.Value() == nil || !bytes.Equal(v.Payload(), bytes.Repeat([]byte{7}, 4096)) {
		t.Fatal("a retained payload was collected while its version was live")
	}
	p.Put(v)
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("a recycled version still pins its retained payload")
	}
	runtime.KeepAlive(v)
}

// TestVersionSpillOrdinals runs a four-index table, so ordinals 2 and 3 live
// in the version's extension: every index finds every row, an unlink
// removes a row from all four chains, and a version recycled into a table
// with fewer or more indexes carries no chain slot or key from its past.
// Ordinal 3 is a hash index with long chains and ordinal 2 an ordered one
// with a row per bucket, so a walk that followed another ordinal's slot
// would miss rows.
func TestVersionSpillOrdinals(t *testing.T) {
	const rows = 64
	keyFn := func(i int) KeyFunc {
		return func(p []byte) uint64 { return keyOf(p)*4 + uint64(i) }
	}
	tbl, err := NewTable(TableSpec{Name: "t", Indexes: []IndexSpec{
		{Name: "i0", Key: keyFn(0), Buckets: 8},
		{Name: "i1", Key: keyFn(1), Ordered: true},
		{Name: "i2", Key: keyFn(2), Ordered: true},
		{Name: "i3", Key: keyFn(3), Buckets: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var pool VersionPool
	vs := make([]*Version, rows)
	for k := range vs {
		vs[k] = pool.Get(pay(uint64(k)), 4, field.FromTS(1), field.FromTS(field.Infinity))
		tbl.Insert(vs[k])
	}
	find := func(ord, k int) int {
		key := keyFn(ord)(pay(uint64(k)))
		b := tbl.Index(ord).Lookup(key)
		if b == nil {
			return 0
		}
		n := 0
		for v := b.Head(); v != nil; v = v.Next(ord) {
			if v.Key(ord) == key {
				if v != vs[k] {
					t.Fatalf("ordinal %d key %d reached the wrong version", ord, k)
				}
				n++
			}
		}
		return n
	}
	for ord := 0; ord < 4; ord++ {
		for k := 0; k < rows; k++ {
			if n := find(ord, k); n != 1 {
				t.Fatalf("ordinal %d finds row %d %d times, want 1", ord, k, n)
			}
		}
	}
	for k := 0; k < rows; k += 2 {
		if !tbl.Unlink(vs[k]) {
			t.Fatalf("row %d already unlinked", k)
		}
	}
	for ord := 0; ord < 4; ord++ {
		for k := 0; k < rows; k++ {
			if n, want := find(ord, k), k%2; n != want {
				t.Fatalf("after unlink: ordinal %d finds row %d %d times, want %d", ord, k, n, want)
			}
		}
	}
	// Recycle the unlinked versions into narrower and wider tables.
	for k := 0; k < rows; k += 2 {
		v := vs[k]
		vs[k] = nil
		v.Reset(pay(1), 1, field.FromTS(2), field.FromTS(field.Infinity))
		if len(v.ext.more) != 0 || v.Next(0) != nil || v.Key(0) != 0 {
			t.Fatalf("row %d: a one-index rearm kept spill slots or chain words", k)
		}
		more := v.ext.more[:cap(v.ext.more)]
		for i := range more {
			if more[i].next.Load() != nil || more[i].key != 0 {
				t.Fatalf("row %d: a one-index rearm kept a spill slot's link", k)
			}
		}
		v.Reset(pay(2), 5, field.FromTS(3), field.FromTS(field.Infinity))
		for ord := 0; ord < 5; ord++ {
			if v.Next(ord) != nil || v.Key(ord) != 0 {
				t.Fatalf("row %d: ordinal %d of a five-index rearm is dirty", k, ord)
			}
		}
	}
}
