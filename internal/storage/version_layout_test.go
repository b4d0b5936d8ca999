package storage

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/field"
)

// TestVersionSize pins the 96-byte layout, so a field added to the version
// fails here rather than quietly pushing it into the 128-byte size class.
// A 96-byte object starts 32-byte aligned, so the first 32 bytes, all a
// primary-index walk and a visibility check read, never cross a cache line.
func TestVersionSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	var v Version
	if got := unsafe.Sizeof(v); got != 96 {
		t.Fatalf("Version is %d bytes, want 96", got)
	}
	for _, f := range []struct {
		name      string
		off, want uintptr
	}{
		{"begin", unsafe.Offsetof(v.begin), 0},
		{"end", unsafe.Offsetof(v.end), 8},
		{"next0", unsafe.Offsetof(v.next0), 16},
		{"key0", unsafe.Offsetof(v.key0), 24},
		{"next1", unsafe.Offsetof(v.next1), 32},
		{"ref", unsafe.Offsetof(v.ref), 40},
		{"word", unsafe.Offsetof(v.word), 48},
		{"inline", unsafe.Offsetof(v.inline), 52},
	} {
		if f.off != f.want {
			t.Errorf("Version.%s at offset %d, want %d", f.name, f.off, f.want)
		}
	}
	if end := unsafe.Offsetof(v.inline) + InlinePayload; end != 96 {
		t.Errorf("inline payload ends at %d, want 96", end)
	}
	// The 96-byte size class starts its objects 32-byte aligned.
	for i := 0; i < 1000; i++ {
		p := NewVersion(pay(uint64(i)), 1, field.FromTS(1), field.FromTS(field.Infinity))
		if a := uintptr(unsafe.Pointer(p)); a%32 != 0 {
			t.Fatalf("version %d at %#x is not 32-byte aligned", i, a)
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
//
// Both places the address can live are covered: the version's shared
// pointer (one index) and its extension (four indexes).
func TestVersionRetainedPayload(t *testing.T) {
	for _, nix := range []int{1, 4} {
		var p VersionPool
		big := bytes.Repeat([]byte{7}, 4096)
		w := weak.Make(&big[0])
		v := p.Get(big, nix, field.FromTS(1), field.FromTS(field.Infinity))
		if (v.ext() != nil) != (nix > 2) {
			t.Fatalf("%d indexes: extension present = %v", nix, v.ext() != nil)
		}
		big = nil
		runtime.GC()
		if w.Value() == nil || !bytes.Equal(v.Payload(), bytes.Repeat([]byte{7}, 4096)) {
			t.Fatalf("%d indexes: a retained payload was collected while its version was live", nix)
		}
		p.Put(v)
		runtime.GC()
		if w.Value() != nil {
			t.Fatalf("%d indexes: a recycled version still pins its retained payload", nix)
		}
		if len(v.Payload()) != 0 || (v.ext() != nil) != (nix > 2) {
			t.Fatalf("%d indexes: a pooled version reads %d payload bytes, extension present = %v",
				nix, len(v.Payload()), v.ext() != nil)
		}
		runtime.KeepAlive(v)
	}
}

// TestVersionSharedPointerModes runs one version through recycles that move
// the payload address between the shared pointer and the extension: four
// indexes with a large payload, one index with a large payload, two indexes
// inline, then five indexes. After each rearm the payload reads back, every
// spill slot of the whole capacity and every chain word reads clean, and
// marking the version unlinked leaves its payload length intact.
func TestVersionSharedPointerModes(t *testing.T) {
	big1 := bytes.Repeat([]byte{1}, 200)
	big2 := bytes.Repeat([]byte{2}, InlinePayload+1)
	small := bytes.Repeat([]byte{3}, 24)
	v := new(Version)
	for step, c := range []struct {
		nix     int
		payload []byte
	}{{4, big1}, {1, big2}, {2, small}, {5, big1}} {
		v.Reset(c.payload, c.nix, field.FromTS(uint64(step+1)), field.FromTS(field.Infinity))
		got := v.Payload()
		if !bytes.Equal(got, c.payload) {
			t.Fatalf("step %d: payload reads %v", step, got)
		}
		if inline := &got[0] == &v.inline[0]; inline != (len(c.payload) <= InlinePayload) {
			t.Fatalf("step %d: %d-byte payload inline = %v", step, len(c.payload), inline)
		}
		// The extension, once grown, stays; its payload address is the
		// current payload's or nil.
		x := v.ext()
		if x == nil {
			if step > 0 || v.ref != unsafe.Pointer(&c.payload[0]) {
				t.Fatalf("step %d: shared pointer %p, want the payload", step, v.ref)
			}
		} else {
			if len(x.more) != max(c.nix-2, 0) {
				t.Fatalf("step %d: %d spill slots for %d indexes", step, len(x.more), c.nix)
			}
			want := (*byte)(nil)
			if len(c.payload) > InlinePayload {
				want = &c.payload[0]
			}
			if x.payload != want {
				t.Fatalf("step %d: extension holds payload %p, want %p", step, x.payload, want)
			}
			more := x.more[:cap(x.more)]
			for i := range more {
				if more[i].Load() != nil {
					t.Fatalf("step %d: spill slot %d kept a link", step, i)
				}
			}
		}
		for ord := 0; ord < c.nix; ord++ {
			if v.Next(ord) != nil {
				t.Fatalf("step %d: ordinal %d chain word is dirty", step, ord)
			}
		}
		if v.Key(0) != 0 || v.word.Load()&wordUnlinked != 0 {
			t.Fatalf("step %d: cached key %d, word %#x", step, v.Key(0), v.word.Load())
		}
		// Dirty everything the next rearm must clear.
		v.key0 = 99
		for ord := 0; ord < c.nix; ord++ {
			v.setNext(ord, v)
		}
		if !v.MarkUnlinked() || v.MarkUnlinked() {
			t.Fatalf("step %d: MarkUnlinked did not flip exactly once", step)
		}
		if !bytes.Equal(v.Payload(), c.payload) {
			t.Fatalf("step %d: MarkUnlinked changed the payload", step)
		}
	}
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
		match := MatchKey(tbl.Index(ord), key)
		for v := b.Head(); v != nil; v = v.Next(ord) {
			if match.Holds(v) {
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
		if len(v.ext().more) != 0 || v.Next(0) != nil || v.Key(0) != 0 {
			t.Fatalf("row %d: a one-index rearm kept spill slots or chain words", k)
		}
		more := v.ext().more[:cap(v.ext().more)]
		for i := range more {
			if more[i].Load() != nil {
				t.Fatalf("row %d: a one-index rearm kept a spill slot's link", k)
			}
		}
		v.Reset(pay(2), 5, field.FromTS(3), field.FromTS(field.Infinity))
		for ord := 0; ord < 5; ord++ {
			if v.Next(ord) != nil {
				t.Fatalf("row %d: ordinal %d of a five-index rearm is dirty", k, ord)
			}
		}
		if v.Key(0) != 0 {
			t.Fatalf("row %d: a five-index rearm kept the cached key", k)
		}
	}
}
