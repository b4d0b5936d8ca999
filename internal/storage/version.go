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
	"sync/atomic"
	"unsafe"

	"repro/internal/field"
)

// InlinePayload is the size of a version's inline payload buffer: payloads
// at most this long are copied into the version itself, so small fixed-width
// records (the paper's 24-byte rows, every TATP row) need no separate
// payload allocation. A larger payload is kept by reference: the version
// holds the caller's slice, which the caller must not modify afterwards.
const InlinePayload = 56

// Version is one version of a record. The payload is immutable after
// creation; updates create new versions (Section 2.3).
//
// A Version is 128 bytes, a Go size class whose objects start 128-byte
// aligned, so each version occupies exactly two cache lines:
//
//   - line 0 holds everything a chain walk and a visibility check read: the
//     Begin and End words, the chain pointers and cached keys of the first
//     two indexes, and the payload's address and length;
//   - line 1 holds the inline payload and the pointer to the rarely needed
//     extension (chain slots of ordinals 2 and up).
//
// A reader that skips a version (another key in its hash bucket, a version
// it cannot see) touches only line 0.
//
// Versions may be pooled: after the garbage collector has unlinked a version
// from every index AND the watermark has passed the unlink time (so no
// transaction that could still reach it remains active), Reset rearms the
// object for a new record. All reader-reachable mutable words (begin, end,
// next pointers) are atomic, so recycling never races with stale readers.
//
//mvlint:padded
type Version struct {
	//mvlint:cacheline
	begin        atomic.Uint64
	end          atomic.Uint64
	next0, next1 atomic.Pointer[Version]
	key0, key1   uint64
	// payload and plen describe the record's user data: the inline buffer
	// or the caller's slice. See Payload.
	payload *byte
	plen    uint32
	// unlinked is set once the version has been removed from every index by
	// the garbage collector, guarding against double unlinks.
	unlinked atomic.Bool

	//mvlint:cacheline
	ext    *versionExt
	inline [InlinePayload]byte
}

// versionExt holds what only some versions need: the chain slots of index
// ordinals 2 and up. It is allocated the first time a version needs it and
// stays with the version across recycles, so steady-state reuse allocates
// nothing.
type versionExt struct {
	more []link
}

// link is one index's chain slot: the successor and the cached key.
type link struct {
	next atomic.Pointer[Version]
	key  uint64
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
// sizes the spill chain slots for nindexes, clears every chain pointer and
// the unlinked flag, and stores the Begin and End words. The caller must
// guarantee the version is unreachable: unlinked from every index, with
// every transaction that might still hold a pointer terminated.
//
//mvlint:noalloc
func (v *Version) Reset(payload []byte, nindexes int, begin, end uint64) {
	if x := v.ext; x != nil {
		// Clear the whole spill capacity (not just the old length) so a
		// pooled version doesn't retain chain pointers from a previous table.
		more := x.more[:cap(x.more)]
		for i := range more {
			more[i].next.Store(nil)
			more[i].key = 0
		}
		x.more = x.more[:0]
	}
	n := len(payload)
	if n <= InlinePayload {
		copy(v.inline[:], payload)
		v.payload = &v.inline[0]
	} else {
		v.payload = unsafe.SliceData(payload)
	}
	// The WAL frames payload lengths as 32 bits too (wal.EncodeRecord).
	v.plen = uint32(n)
	if nindexes > 2 {
		x := v.extension()
		if cap(x.more) < nindexes-2 {
			x.growMore(nindexes - 2)
		}
		x.more = x.more[:nindexes-2]
	}
	v.next0.Store(nil)
	v.next1.Store(nil)
	v.key0, v.key1 = 0, 0
	v.unlinked.Store(false)
	v.begin.Store(begin)
	v.end.Store(end)
}

// extension returns the version's extension, allocating it on first use.
func (v *Version) extension() *versionExt {
	if v.ext == nil {
		v.ext = newVersionExt()
	}
	return v.ext
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
func (x *versionExt) growMore(n int) { x.more = make([]link, 0, n) }

// Payload returns the record's user data. It must not be modified, and must
// not be retained past the reading transaction's lifetime: it may point into
// the version's inline buffer, which is reused when the version is recycled.
// Its capacity equals its length, so an append copies instead of writing
// into the version.
func (v *Version) Payload() []byte { return unsafe.Slice(v.payload, v.plen) }

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
		return v.ext.more[ord-2].next.Load()
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
		v.ext.more[ord-2].next.Store(n)
	}
}

// Key returns the cached index key for index ord.
func (v *Version) Key(ord int) uint64 {
	switch ord {
	case 0:
		return v.key0
	case 1:
		return v.key1
	default:
		return v.ext.more[ord-2].key
	}
}

// setKey caches the index key; called once by Table.Insert before linking.
func (v *Version) setKey(ord int, k uint64) {
	switch ord {
	case 0:
		v.key0 = k
	case 1:
		v.key1 = k
	default:
		v.ext.more[ord-2].key = k
	}
}

// MarkUnlinked flips the version into the unlinked state, returning false if
// it was already unlinked.
func (v *Version) MarkUnlinked() bool { return v.unlinked.CompareAndSwap(false, true) }

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
