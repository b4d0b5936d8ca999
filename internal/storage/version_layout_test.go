package storage

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/field"
)

// TestVersionSize pins the three shapes: 64, 64 and 96 bytes, sharing the
// 36-byte header at fixed offsets, so a field added to a shape fails here
// rather than quietly pushing it into the next size class. A 64-byte object
// starts 64-byte aligned and a 96-byte one 32-byte aligned, so the header,
// all a primary-index walk and a visibility check read, never crosses a
// cache line.
func TestVersionSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	var (
		h  Version
		s1 smallVersion1
		s2 smallVersion2
		l  largeVersion
	)
	for _, f := range []struct {
		name      string
		off, want uintptr
	}{
		{"begin", unsafe.Offsetof(h.begin), 0},
		{"end", unsafe.Offsetof(h.end), 8},
		{"next0", unsafe.Offsetof(h.next0), 16},
		{"key0", unsafe.Offsetof(h.key0), 24},
		{"word", unsafe.Offsetof(h.word), 32},
		{"inline", unsafe.Offsetof(h.inline), 36},
		{"smallVersion1.Version", unsafe.Offsetof(s1.Version), 0},
		{"smallVersion1 size", unsafe.Sizeof(s1), 64},
		{"smallVersion1 inline end", unsafe.Offsetof(h.inline) + SmallPayload1, 64},
		{"smallVersion2.Version", unsafe.Offsetof(s2.Version), 0},
		{"smallVersion2.next1", unsafe.Offsetof(s2.next1), 56},
		{"smallVersion2 size", unsafe.Sizeof(s2), 64},
		{"smallVersion2 inline end", unsafe.Offsetof(h.inline) + SmallPayload2, 56},
		{"largeVersion.Version", unsafe.Offsetof(l.Version), 0},
		{"largeVersion.next1", unsafe.Offsetof(l.next1), 80},
		{"largeVersion.ref", unsafe.Offsetof(l.ref), 88},
		{"largeVersion size", unsafe.Sizeof(l), 96},
		{"largeVersion inline end", unsafe.Offsetof(h.inline) + InlinePayload, 80},
	} {
		if f.off != f.want {
			t.Errorf("%s is %d, want %d", f.name, f.off, f.want)
		}
	}
	for _, c := range []struct {
		nix   int
		n     int
		align uintptr
	}{{1, SmallPayload1, 64}, {2, SmallPayload2, 64}, {1, InlinePayload, 32}} {
		for i := 0; i < 1000; i++ {
			p := NewVersion(make([]byte, c.n), c.nix, field.FromTS(1), field.FromTS(field.Infinity))
			if a := uintptr(unsafe.Pointer(p)); a%c.align != 0 {
				t.Fatalf("%d-index %d-byte version %d at %#x is not %d-byte aligned", c.nix, c.n, i, a, c.align)
			}
		}
	}
}

// inlineBuf is v's whole inline buffer, as long as its shape's capacity.
func inlineBuf(v *Version) []byte {
	n := InlinePayload
	switch v.word.Load() & wordShape {
	case wordSmall1:
		n = SmallPayload1
	case wordSmall2:
		n = SmallPayload2
	}
	return unsafe.Slice(&v.inline[0], n)
}

// sizeClass is the spacing of versions of v's shape on the heap: the
// smallest gap between the addresses of 128 fresh objects, which the
// allocator places side by side in one span.
func sizeClass(v *Version) uintptr {
	addrs := make([]uintptr, 128)
	keep := make([]*Version, len(addrs))
	for i := range addrs {
		keep[i] = newShape(v.word.Load() & wordShape)
		addrs[i] = uintptr(unsafe.Pointer(keep[i]))
	}
	slices.Sort(addrs)
	gap := ^uintptr(0)
	for i := 1; i < len(addrs); i++ {
		gap = min(gap, addrs[i]-addrs[i-1])
	}
	runtime.KeepAlive(keep)
	return gap
}

// TestVersionShapes checks the shape chosen for payloads on both sides of
// each inline capacity (20/21, 28/29, 44/45 bytes) on tables of one, two
// and three indexes: the shape, its size class, the payload (inline or by
// reference) and every chain slot. Reset refuses a payload or index count
// the shape cannot hold, and a pooled round trip never hands a version to
// a request for another shape.
func TestVersionShapes(t *testing.T) {
	type want struct {
		shape uint32
		class uintptr
	}
	small1, small2, large := want{wordSmall1, 64}, want{wordSmall2, 64}, want{0, 96}
	cases := []struct {
		n, nix int
		want   want
	}{
		{20, 1, small1}, {21, 1, small1}, {28, 1, small1}, {29, 1, large}, {44, 1, large}, {45, 1, large},
		{20, 2, small2}, {21, 2, large}, {28, 2, large}, {29, 2, large}, {44, 2, large}, {45, 2, large},
		{20, 3, large}, {21, 3, large}, {28, 3, large}, {29, 3, large}, {44, 3, large}, {45, 3, large},
	}
	for _, c := range cases {
		src := bytes.Repeat([]byte{byte(c.n)}, c.n)
		v := NewVersion(src, c.nix, field.FromTS(1), field.FromTS(field.Infinity))
		if got := v.word.Load() & wordShape; got != c.want.shape {
			t.Fatalf("%d bytes, %d indexes: shape %#x, want %#x", c.n, c.nix, got, c.want.shape)
		}
		if got := sizeClass(v); got != c.want.class {
			t.Fatalf("%d bytes, %d indexes: %d-byte size class, want %d", c.n, c.nix, got, c.want.class)
		}
		got := v.Payload()
		if !bytes.Equal(got, src) {
			t.Fatalf("%d bytes, %d indexes: payload reads %v", c.n, c.nix, got)
		}
		if inline := &got[0] == &v.inline[0]; inline != (c.n <= InlinePayload) {
			t.Fatalf("%d bytes, %d indexes: inline = %v", c.n, c.nix, inline)
		}
		// Every chain slot starts clean, and each holds its own link.
		others := make([]*Version, c.nix)
		for ord := range others {
			if v.Next(ord) != nil {
				t.Fatalf("%d bytes, %d indexes: ordinal %d chain word is dirty", c.n, c.nix, ord)
			}
			others[ord] = NewVersion(nil, 1, 1, 2)
			v.setNext(ord, others[ord])
		}
		for ord, o := range others {
			if v.Next(ord) != o {
				t.Fatalf("%d bytes, %d indexes: ordinal %d chain slot is shared", c.n, c.nix, ord)
			}
		}
		if !bytes.Equal(v.Payload(), src) {
			t.Fatalf("%d bytes, %d indexes: a chain store changed the payload", c.n, c.nix)
		}
	}

	// Reset keeps a version in its shape and refuses what the shape cannot
	// hold.
	for _, c := range []struct {
		shape  uint32
		n, nix int
	}{
		{wordSmall1, SmallPayload1 + 1, 1}, {wordSmall1, 1, 2},
		{wordSmall2, SmallPayload2 + 1, 1}, {wordSmall2, 1, 3},
	} {
		v := newShape(c.shape)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shape %#x took a %d-byte payload on %d indexes", c.shape, c.n, c.nix)
				}
			}()
			v.Reset(make([]byte, c.n), c.nix, 1, 2)
		}()
	}

	// Round trips through one pool, in an order that offers every shape's
	// recycled versions to every request.
	var p VersionPool
	for round := 0; round < 3; round++ {
		for _, c := range cases {
			src := bytes.Repeat([]byte{byte(round)}, c.n)
			v := p.Get(src, c.nix, field.FromTS(1), field.FromTS(field.Infinity))
			if got := v.word.Load() & wordShape; got != c.want.shape {
				t.Fatalf("round %d, %d bytes, %d indexes: pool handed shape %#x, want %#x", round, c.n, c.nix, got, c.want.shape)
			}
			if !bytes.Equal(v.Payload(), src) {
				t.Fatalf("round %d, %d bytes, %d indexes: payload reads %v", round, c.n, c.nix, v.Payload())
			}
			for ord := 0; ord < c.nix; ord++ {
				if v.Next(ord) != nil {
					t.Fatalf("round %d, %d bytes, %d indexes: ordinal %d chain word is dirty", round, c.n, c.nix, ord)
				}
				v.setNext(ord, v)
			}
			p.Put(v)
		}
	}
}

// TestVersionPayloadCapacity checks that Payload's capacity is its length
// for inline and by-reference payloads alike, in every shape, so an append
// by a caller copies instead of writing into the version's inline buffer
// or past the caller's slice.
func TestVersionPayloadCapacity(t *testing.T) {
	for _, nix := range []int{1, 2, 3} {
		for _, n := range []int{0, 8, SmallPayload2, SmallPayload1, InlinePayload, InlinePayload + 1, 200} {
			src := bytes.Repeat([]byte{0x5A}, n)
			v := NewVersion(src, nix, field.FromTS(1), field.FromTS(field.Infinity))
			p := v.Payload()
			if len(p) != n || cap(p) != n || !bytes.Equal(p, src) {
				t.Fatalf("n=%d, %d indexes: payload len %d cap %d", n, nix, len(p), cap(p))
			}
			_ = append(p, 0xFF)
			if got := v.Payload(); !bytes.Equal(got, src) {
				t.Fatalf("n=%d, %d indexes: append through Payload changed the version", n, nix)
			}
			if buf := inlineBuf(v); n < len(buf) && buf[n] != 0 {
				t.Fatalf("n=%d, %d indexes: append wrote into the inline buffer", n, nix)
			}
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

// TestVersionSharedPointerModes runs one large version through recycles
// that move the payload address between the shared pointer and the
// extension: four indexes with a large payload, one index with a large
// payload, two indexes inline, then five indexes. After each rearm the payload reads back, every
// spill slot of the whole capacity and every chain word reads clean, and
// marking the version unlinked leaves its payload length intact.
func TestVersionSharedPointerModes(t *testing.T) {
	big1 := bytes.Repeat([]byte{1}, 200)
	big2 := bytes.Repeat([]byte{2}, InlinePayload+1)
	small := bytes.Repeat([]byte{3}, 24)
	v := newShape(0)
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
			if step > 0 || v.large().ref != unsafe.Pointer(&c.payload[0]) {
				t.Fatalf("step %d: shared pointer %p, want the payload", step, v.large().ref)
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
