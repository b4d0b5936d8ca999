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

// InlinePayload is the size of a version's inline payload buffer: payloads
// at most this long are copied into the version itself, so small fixed-width
// records (the paper's 24-byte rows, every TATP row) need no separate
// payload allocation. A larger payload is kept by reference: the version
// holds the caller's slice, which the caller must not modify afterwards.
const InlinePayload = 44

// MaxPayload is the largest payload a version holds: its length shares a
// 32-bit word with two flags.
const MaxPayload = 1<<30 - 1

// Version word flags, above the payload length in bits 0..29.
const (
	wordExt      = 1 << 30 // ref is the version's extension
	wordUnlinked = 1 << 31 // unlinked from every index (MarkUnlinked)
)

// Version is one version of a record. The payload is immutable after
// creation; updates create new versions (Section 2.3).
//
// A Version is 96 bytes, a Go size class whose objects start 32-byte
// aligned, so each version spans exactly two cache lines, and its first 32
// bytes never cross a line:
//
//   - bytes 0..31 hold what a primary-index chain walk and a visibility
//     check read: the Begin and End words, the ordinal-0 successor and the
//     cached primary key;
//   - bytes 32..51 hold the ordinal-1 successor, the shared pointer and the
//     word of payload length and flags;
//   - bytes 52..95 hold the inline payload.
//
// Only the primary key is cached, as in the paper's record format (Figure
// 1): the keys of ordinals 1 and up are read from the payload by their
// index's key function (KeyOf). The one pointer ref is the address of a
// payload kept by reference or, once the version has needed chain slots
// for ordinals 2 and up, its extension, which then holds that address.
//
// Versions may be pooled: after the garbage collector has unlinked a version
// from every index AND the watermark has passed the unlink time (so no
// transaction that could still reach it remains active), Reset rearms the
// object for a new record. All reader-reachable mutable words (begin, end,
// next pointers, the word the unlinked flag lives in) are atomic, so
// recycling never races with stale readers.
type Version struct {
	begin atomic.Uint64
	end   atomic.Uint64
	next0 atomic.Pointer[Version]
	key0  uint64
	next1 atomic.Pointer[Version]
	// ref is nil, the address of a payload kept by reference, or (wordExt
	// set) the *versionExt. See Payload.
	ref unsafe.Pointer
	// word holds the payload length in bits 0..29 and the wordExt and
	// wordUnlinked flags. MarkUnlinked sets its flag while readers load the
	// length.
	word   atomic.Uint32
	inline [InlinePayload]byte
}

// versionExt holds what only some versions need: the chain slots of index
// ordinals 2 and up, and with them the address of a payload kept by
// reference. It is allocated the first time a version needs spill slots and
// stays with the version across recycles, so steady-state reuse allocates
// nothing.
type versionExt struct {
	payload *byte
	more    []atomic.Pointer[Version]
}

// NewVersion allocates a version with room for chains in nindexes indexes.
// The Begin and End words start as the given values. Small payloads are
// copied into the version's inline buffer; larger ones are retained.
func NewVersion(payload []byte, nindexes int, begin, end uint64) *Version {
	v := &Version{}
	v.Reset(payload, nindexes, begin, end)
	return v
}

// Reset rearms a version for reuse: it installs the payload (copying small
// payloads into the inline buffer and keeping larger ones by reference),
// sizes the spill chain slots for nindexes, clears every chain pointer, the
// cached key and the unlinked flag, and stores the Begin and End words. The
// caller must guarantee the version is unreachable: unlinked from every
// index, with every transaction that might still hold a pointer terminated.
//
//mvlint:noalloc
func (v *Version) Reset(payload []byte, nindexes int, begin, end uint64) {
	n := len(payload)
	if n > MaxPayload {
		payloadTooLarge(n)
	}
	x := v.ext()
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
			v.ref = unsafe.Pointer(x)
		}
		if cap(x.more) < nindexes-2 {
			x.growMore(nindexes - 2)
		}
		x.more = x.more[:nindexes-2]
	}
	var ref *byte
	if n <= InlinePayload {
		copy(v.inline[:], payload)
	} else {
		ref = unsafe.SliceData(payload)
	}
	w := uint32(n)
	if x != nil {
		x.payload = ref
		w |= wordExt
	} else {
		v.ref = unsafe.Pointer(ref)
	}
	v.next0.Store(nil)
	v.next1.Store(nil)
	v.key0 = 0
	v.word.Store(w)
	v.begin.Store(begin)
	v.end.Store(end)
}

// payloadTooLarge is Reset's failure, kept out of line so the panic value's
// allocation stays out of Reset (mvlint/noalloc).
//
//go:noinline
func payloadTooLarge(n int) {
	panic(fmt.Sprintf("storage: %d-byte payload above MaxPayload", n))
}

// ext returns the version's extension, or nil if it has none.
func (v *Version) ext() *versionExt {
	if v.word.Load()&wordExt == 0 {
		return nil
	}
	return (*versionExt)(v.ref)
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
	n := w &^ (wordExt | wordUnlinked)
	if n <= InlinePayload {
		return unsafe.Slice(&v.inline[0], n)
	}
	p := (*byte)(v.ref)
	if w&wordExt != 0 {
		p = (*versionExt)(v.ref).payload
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

// Next returns the successor of v in index ord's bucket chain.
func (v *Version) Next(ord int) *Version {
	switch ord {
	case 0:
		return v.next0.Load()
	case 1:
		return v.next1.Load()
	default:
		return (*versionExt)(v.ref).more[ord-2].Load()
	}
}

// setNext stores the successor pointer; callers hold the bucket latch.
func (v *Version) setNext(ord int, n *Version) {
	switch ord {
	case 0:
		v.next0.Store(n)
	case 1:
		v.next1.Store(n)
	default:
		(*versionExt)(v.ref).more[ord-2].Store(n)
	}
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
