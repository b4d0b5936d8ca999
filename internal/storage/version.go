// Package storage implements the multiversion storage structures of
// Section 2: versioned records, tables with multiple hash indexes, and the
// bucket-lock table used by pessimistic serializable transactions.
//
// Records are only reachable through index lookups (Section 2.1). Every
// version carries a Begin and End word (see internal/field) and one hash
// chain pointer per index on its table, exactly like the record format of
// Figure 1. Readers traverse bucket chains without taking any latches;
// structural changes (insert, garbage-collection unlink) take a short
// per-bucket latch.
package storage

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/field"
)

// Inline payload capacities of the three version shapes (see Version).
// Payloads at most this long are copied into the version itself, so small
// fixed-width records (the paper's 24-byte rows, every TATP row) need no
// separate payload allocation. A payload above InlinePayload is kept by
// reference: the version holds the caller's slice, which the caller must
// not modify afterwards.
const (
	// InlinePayload is the large shape's buffer, the most any version
	// holds inline.
	InlinePayload = 44
	// SmallPayload1 is the buffer of the 64-byte shape of a one-index
	// table.
	SmallPayload1 = 28
	// SmallPayload2 is the buffer of the 64-byte shape of a table of up to
	// two indexes.
	SmallPayload2 = 20
)

// MaxPayload is the largest payload a version holds: its length shares a
// 32-bit word with the shape and two flags.
const MaxPayload = 1<<28 - 1

// Version word layout: the payload length in bits 0..27, the shape in bits
// 28..29 (neither bit set: a largeVersion) and two flags. The shape is set
// when the object is allocated and never changes.
const (
	wordLen      = MaxPayload
	shapeShift   = 28
	wordSmall1   = 1 << shapeShift // a smallVersion1
	wordSmall2   = 2 << shapeShift // a smallVersion2
	wordShape    = wordSmall1 | wordSmall2
	wordExt      = 1 << 30 // a largeVersion whose ref is its extension
	wordUnlinked = 1 << 31 // unlinked from every index (MarkUnlinked)
)

// Version is one version of a record. The payload is immutable after
// creation; updates create new versions (Section 2.3).
//
// Versions come in three shapes, each its own Go type, sized to the table
// and the payload as the paper sizes each record (Section 2, Figure 1):
// smallVersion1 (64 bytes, one index, payloads up to SmallPayload1),
// smallVersion2 (64 bytes, up to two indexes, payloads up to SmallPayload2)
// and largeVersion (96 bytes, everything else). All three begin with this
// 36-byte header, so a primary-index chain walk, a visibility check and an
// inline Payload read the same bytes in every shape:
//
//   - bytes 0..31: the Begin and End words, the ordinal-0 successor and the
//     cached primary key;
//   - bytes 32..35: the word of payload length, shape and flags;
//   - from byte 36: the inline payload, whose first four bytes are the
//     header's inline field and whose rest is the shape's.
//
// A Version is never allocated on its own: NewVersion and VersionPool.Get
// allocate one of the shapes, and the fields a shape adds (the ordinal-1
// successor, the large shape's shared pointer) are reached only by
// converting to that shape's type after checking the word's shape bits. No
// code writes a field the object's type lacks: those bytes may be payload,
// which the collector would read as a pointer.
//
// Only the primary key is cached, as in the paper's record format (Figure
// 1): the keys of ordinals 1 and up are read from the payload by their
// index's key function (KeyOf).
//
// Versions may be pooled: after the garbage collector has unlinked a version
// from every index AND the watermark has passed the unlink time (so no
// transaction that could still reach it remains active), Reset rearms the
// object for a new record of a size and index count its shape holds. All
// reader-reachable mutable words (begin, end, next pointers, the word the
// unlinked flag lives in) are atomic, so recycling never races with stale
// readers.
type Version struct {
	begin atomic.Uint64
	end   atomic.Uint64
	next0 atomic.Pointer[Version]
	key0  uint64
	// word holds the payload length in bits 0..27, the shape bits and the
	// wordExt and wordUnlinked flags. MarkUnlinked sets its flag while
	// readers load the length.
	word atomic.Uint32
	// inline is the head of the inline payload, which runs on into the
	// shape's buffer.
	inline [4]byte
}

// smallVersion1 is the version of a one-index table with a payload of at
// most SmallPayload1 bytes: one cache line.
//
//mvlint:padded
type smallVersion1 struct {
	Version
	_ [SmallPayload1 - 4]byte
}

// smallVersion2 is the version of a table of up to two indexes with a
// payload of at most SmallPayload2 bytes: one cache line.
//
//mvlint:padded
type smallVersion2 struct {
	Version
	_     [SmallPayload2 - 4]byte
	next1 atomic.Pointer[Version]
}

// largeVersion holds any payload for any index count: up to InlinePayload
// bytes inline, larger ones by reference. Its one pointer ref is the
// address of a payload kept by reference or, once the version has needed
// chain slots for ordinals 2 and up, its extension, which then holds that
// address. 96 bytes, a size class whose objects start 32-byte aligned, so
// the header never crosses a cache line.
type largeVersion struct {
	Version
	_     [InlinePayload - 4]byte
	next1 atomic.Pointer[Version]
	// ref is nil, the address of a payload kept by reference, or (wordExt
	// set) the *versionExt. See Payload.
	ref unsafe.Pointer
}

// versionExt holds what only some large versions need: the chain slots of
// index ordinals 2 and up, and with them the address of a payload kept by
// reference. It is allocated the first time a version needs spill slots and
// stays with the version across recycles, so steady-state reuse allocates
// nothing.
type versionExt struct {
	payload *byte
	more    []atomic.Pointer[Version]
}

// shapeFor returns the shape bits of the smallest version that holds an
// n-byte payload on a table of nindexes indexes.
func shapeFor(n, nindexes int) uint32 {
	switch {
	case nindexes <= 1 && n <= SmallPayload1:
		return wordSmall1
	case nindexes <= 2 && n <= SmallPayload2:
		return wordSmall2
	}
	return 0
}

// newShape allocates an empty version of the given shape. It is the one
// allocation site of versions, kept out of line so the pool's recycled path
// stays allocation free (mvlint/noalloc).
//
//go:noinline
func newShape(shape uint32) *Version {
	var v *Version
	switch shape {
	case wordSmall1:
		v = &new(smallVersion1).Version
	case wordSmall2:
		v = &new(smallVersion2).Version
	default:
		v = &new(largeVersion).Version
	}
	v.word.Store(shape)
	return v
}

// large returns v as its large shape; the caller has checked the shape.
func (v *Version) large() *largeVersion { return (*largeVersion)(unsafe.Pointer(v)) }

// NewVersion allocates a version with room for chains in nindexes indexes,
// in the smallest shape that holds the payload. The Begin and End words
// start as the given values. Small payloads are copied into the version's
// inline buffer; larger ones are retained.
func NewVersion(payload []byte, nindexes int, begin, end uint64) *Version {
	v := newShape(shapeFor(len(payload), nindexes))
	v.Reset(payload, nindexes, begin, end)
	return v
}

// Reset rearms a version for reuse within its shape: it installs the
// payload (copying small payloads into the inline buffer and keeping larger
// ones by reference), sizes a large version's spill chain slots for
// nindexes, clears every chain pointer, the cached key and the unlinked
// flag, and stores the Begin and End words. The shape must hold the payload
// and the index count; Reset panics otherwise. The caller must guarantee
// the version is unreachable: unlinked from every index, with every
// transaction that might still hold a pointer terminated.
//
//mvlint:noalloc
func (v *Version) Reset(payload []byte, nindexes int, begin, end uint64) {
	n := len(payload)
	w := v.word.Load() & wordShape
	switch w {
	case wordSmall1:
		if n > SmallPayload1 || nindexes > 1 {
			shapeTooSmall(n, nindexes)
		}
	case wordSmall2:
		if n > SmallPayload2 || nindexes > 2 {
			shapeTooSmall(n, nindexes)
		}
		(*smallVersion2)(unsafe.Pointer(v)).next1.Store(nil)
	default:
		if n > MaxPayload {
			payloadTooLarge(n)
		}
		w |= v.large().reset(payload, nindexes)
	}
	if n <= InlinePayload {
		copy(unsafe.Slice(&v.inline[0], n), payload)
	}
	v.next0.Store(nil)
	v.key0 = 0
	v.word.Store(w | uint32(n))
	v.begin.Store(begin)
	v.end.Store(end)
}

// reset is Reset's large-shape part: it clears the ordinal-1 and spill
// chain slots, sizes the spill slots for nindexes and stores a by-reference
// payload's address, returning wordExt if the version has an extension.
func (l *largeVersion) reset(payload []byte, nindexes int) uint32 {
	x := l.ext()
	if x != nil {
		// Clear the whole spill capacity (not just the old length) so a
		// pooled version doesn't retain chain pointers from a previous table.
		more := x.more[:cap(x.more)]
		for i := range more {
			more[i].Store(nil)
		}
		x.more = x.more[:0]
	}
	if nindexes > 2 {
		if x == nil {
			x = newVersionExt()
			l.ref = unsafe.Pointer(x)
		}
		if cap(x.more) < nindexes-2 {
			x.growMore(nindexes - 2)
		}
		x.more = x.more[:nindexes-2]
	}
	var ref *byte
	if len(payload) > InlinePayload {
		ref = unsafe.SliceData(payload)
	}
	l.next1.Store(nil)
	if x == nil {
		l.ref = unsafe.Pointer(ref)
		return 0
	}
	x.payload = ref
	return wordExt
}

// payloadTooLarge is Reset's failure on a payload no shape holds, kept out
// of line so the panic value's allocation stays out of Reset
// (mvlint/noalloc).
//
//go:noinline
func payloadTooLarge(n int) {
	panic(fmt.Sprintf("storage: %d-byte payload above MaxPayload", n))
}

// shapeTooSmall is Reset's failure on a small version rearmed for a payload
// or an index count its shape cannot hold, out of line like
// payloadTooLarge.
//
//go:noinline
func shapeTooSmall(n, nindexes int) {
	panic(fmt.Sprintf("storage: a 64-byte version cannot hold a %d-byte payload on %d indexes", n, nindexes))
}

// ext returns the version's extension, or nil if it has none.
func (v *Version) ext() *versionExt {
	if v.word.Load()&wordExt == 0 {
		return nil
	}
	return (*versionExt)(v.large().ref)
}

// newVersionExt is the extension's one-time allocation, kept out of line so
// Reset's reuse path stays allocation free (mvlint/noalloc).
//
//go:noinline
func newVersionExt() *versionExt { return &versionExt{} }

// growMore replaces the spill slots with room for n ordinals: a version
// recycled into a table with more indexes than any table it served before.
//
//go:noinline
func (x *versionExt) growMore(n int) { x.more = make([]atomic.Pointer[Version], 0, n) }

// Payload returns the record's user data. It must not be modified, and must
// not be retained past the reading transaction's lifetime: it may point into
// the version's inline buffer, which is reused when the version is recycled.
// Its capacity equals its length, so an append copies instead of writing
// into the version.
func (v *Version) Payload() []byte {
	w := v.word.Load()
	n := w & wordLen
	if n <= InlinePayload {
		return unsafe.Slice(&v.inline[0], n)
	}
	// Only a large version holds a payload above InlinePayload.
	p := (*byte)(v.large().ref)
	if w&wordExt != 0 {
		p = (*versionExt)(v.large().ref).payload
	}
	return unsafe.Slice(p, n)
}

// Begin loads the Begin word.
func (v *Version) Begin() uint64 { return v.begin.Load() }

// End loads the End word.
func (v *Version) End() uint64 { return v.end.Load() }

// SetBegin stores the Begin word. Only the transaction that owns the
// version (its creator) finalizes Begin, so a plain store suffices.
func (v *Version) SetBegin(w uint64) { v.begin.Store(w) }

// SetEnd stores the End word unconditionally. Used only during
// single-threaded setup and recovery; concurrent mutation goes through
// CASEnd.
func (v *Version) SetEnd(w uint64) { v.end.Store(w) }

// CASEnd atomically replaces the End word if it still equals old. All
// concurrent End-word transitions (write locking, read locking, lock
// release, timestamp finalization) go through this.
func (v *Version) CASEnd(old, new uint64) bool { return v.end.CompareAndSwap(old, new) }

// Next returns the successor of v in index ord's bucket chain; ord is below
// the index count v was armed for.
func (v *Version) Next(ord int) *Version {
	if ord == 0 {
		return v.next0.Load()
	}
	return v.nextAt(ord)
}

// nextAt is Next on ordinals 1 and up, out of line so that Next inlines
// into the primary-index walks.
//
//go:noinline
func (v *Version) nextAt(ord int) *Version { return v.link(ord).Load() }

// setNext stores the successor pointer; callers hold the bucket latch.
func (v *Version) setNext(ord int, n *Version) {
	p := &v.next0
	if ord != 0 {
		p = v.link(ord)
	}
	p.Store(n)
}

// link returns v's chain slot on ordinal ord >= 1, in the field of v's
// shape: a two-index small version's next1, a large version's next1 or one
// of its extension's spill slots. For an ordinal the shape has no slot for
// it returns nil, so the caller's load or store panics instead of reaching
// past the object.
func (v *Version) link(ord int) *atomic.Pointer[Version] {
	w := v.word.Load()
	switch {
	case w&wordShape == wordSmall2 && ord == 1:
		return &(*smallVersion2)(unsafe.Pointer(v)).next1
	case w&wordShape != 0:
		return nil
	case ord == 1:
		return &v.large().next1
	case w&wordExt != 0:
		return &(*versionExt)(v.large().ref).more[ord-2]
	}
	return nil
}

// Key returns the cached primary key, the key of index ordinal 0; ord must
// be 0. No other key is cached: KeyOf computes the key of any ordinal.
func (v *Version) Key(ord int) uint64 {
	if ord != 0 {
		panic("storage: Version.Key caches only ordinal 0; use KeyOf")
	}
	return v.key0
}

// KeyOf returns v's key on index ix: the cached primary key for ordinal 0,
// else ix's key function applied to the immutable payload.
func KeyOf(ix Index, v *Version) uint64 {
	if ix.Ord() == 0 {
		return v.key0
	}
	return ix.Key(v.Payload())
}

// MarkUnlinked flips the version into the unlinked state, returning false if
// it was already unlinked. It is a CAS loop, not an atomic Or: go1.24.0 on
// amd64 miscompiles an inlined Or whose result is tested here, clobbering
// the caller's live register.
func (v *Version) MarkUnlinked() bool {
	for {
		w := v.word.Load()
		if w&wordUnlinked != 0 {
			return false
		}
		if v.word.CompareAndSwap(w, w|wordUnlinked) {
			return true
		}
	}
}

// IsGarbage reports whether the version can never be visible again given the
// oldest active read time: its valid time ended before the watermark, or it
// belongs to an aborted transaction (begin infinity).
func (v *Version) IsGarbage(watermark uint64) bool {
	b := v.Begin()
	if field.IsTS(b) && field.TS(b) == field.Infinity {
		return true // aborted creator marked it invisible
	}
	e := v.End()
	return field.IsTS(e) && field.TS(e) <= watermark && field.TS(e) != field.Infinity
}
