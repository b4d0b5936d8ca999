package gc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultPinSlots is the minimum reader-pin capacity; Init raises it to
// slotsPerCPU slots per processor on larger machines. Overflow is handled by
// the caller (fall back to transaction-table registration), so capacity only
// bounds the fast path, not correctness.
const DefaultPinSlots = 128

// slotsPerCPU is the per-processor floor on capacity: enough that a burst of
// readers on every processor at once rarely overflows the table.
const slotsPerCPU = 8

// pinSlot is one published read timestamp, padded to a cache line so
// neighbouring pins don't false-share under concurrent Acquire/Release.
//
//mvlint:padded
type pinSlot struct {
	v atomic.Uint64 //mvlint:cacheline
	_ [56]byte
}

// pinHint is a preallocated per-slot token circulated through a sync.Pool to
// give Acquire processor affinity: Release puts the freed slot's token into
// the pool, and sync.Pool's per-P caching hands it back to the next Acquire
// on the same processor, which reclaims the (likely still free, likely
// cache-hot) slot with a single CAS. Tokens are allocated once in Init, so
// the pool never allocates in steady state; losing tokens to the runtime's
// pool purge just means the next Acquire starts its probe at the rotor.
type pinHint struct{ slot int32 }

// ReaderPins publishes the read timestamps of readers that are NOT
// registered in the transaction table: read-only fast-lane transactions,
// checkpoint captures and deadlock-detector passes. The garbage collector
// folds the minimum pinned timestamp into its watermark, so versions (and
// pooled transaction objects) such a reader can still see are never recycled
// under it.
//
// Publication protocol (the ordering matters; Go atomics are sequentially
// consistent):
//
//	reader: p := oracle.Current()     // provisional pin
//	        slot := pins.Acquire(p)   // publish BEFORE choosing a read time
//	        rt := oracle.Current()    // actual read time, rt >= p
//	gc:     cur := oracle.Current()   // BEFORE scanning pins
//	        wm := pins.Min(min(tableMinima, cur))
//
// If the collector's slot scan sees the pin, wm <= p <= rt. If it misses
// it, the slot load that missed it precedes the publish in the total order,
// so the collector's earlier Current() load precedes the reader's later one:
// rt >= cur >= wm. Either way wm <= rt, and a version is only garbage when
// its end timestamp is <= wm, which the reader (visibility requires
// rt < end) could never see. The same argument covers pointers the reader
// already holds: recycling a version or transaction object stamped at S
// requires wm > S, and S is always drawn after the pin value, so S >= p.
// Min keeps no cache between calls: every round loads every slot, so there
// is no cached minimum that could hide a published pin.
//
// Init sizes the table; an uninitialized ReaderPins has no slots, so every
// Acquire overflows into the registered fallback (safe, just slow).
type ReaderPins struct {
	slots  []pinSlot
	full   atomic.Uint64
	rr     atomic.Uint32 // probe start when no hint is available
	hints  sync.Pool
	hintOf []pinHint // one preallocated token per slot, indexed by slot
}

// Init sizes the pin table to max(n, DefaultPinSlots, slotsPerCPU ×
// runtime.NumCPU) slots. It must be called before the table is shared; it is
// not safe to resize a table that readers are already using.
func (p *ReaderPins) Init(n int) {
	n = max(n, DefaultPinSlots, slotsPerCPU*runtime.NumCPU())
	p.slots = make([]pinSlot, n)
	p.hintOf = make([]pinHint, n)
	for i := range p.hintOf {
		p.hintOf[i].slot = int32(i)
	}
	// p.hints needs no setup: tokens enter only through Release, and Get on
	// an empty pool returns nil (no New), which Acquire treats as "no hint".
}

// Slots returns the slot capacity.
func (p *ReaderPins) Slots() int { return len(p.slots) }

// Acquire claims a free slot, publishes rt in it, and returns the slot
// index, or -1 when every slot is occupied (the caller must then fall back
// to a mechanism the watermark can see, e.g. table registration). rt of 0
// (pristine oracle) is promoted to 1 so the slot never looks free; nothing
// is visible at read time 0, so the stricter pin is harmless.
//
// The probe starts at the slot most recently released on this processor,
// handed back by the hint pool's per-P cache, or else at the rotor, and
// walks the table once with wrap-around.
//
//mvlint:noalloc
func (p *ReaderPins) Acquire(rt uint64) int {
	n := len(p.slots)
	if n == 0 {
		p.full.Add(1)
		return -1
	}
	if rt == 0 {
		rt = 1
	}
	var i int
	if h, _ := p.hints.Get().(*pinHint); h != nil {
		i = int(h.slot)
	} else {
		i = int(p.rr.Add(1) % uint32(n))
	}
	for range n {
		if s := &p.slots[i].v; s.Load() == 0 && s.CompareAndSwap(0, rt) {
			return i
		}
		if i++; i == n {
			i = 0
		}
	}
	p.full.Add(1)
	return -1
}

// Release frees a slot returned by Acquire and recycles its affinity token.
// The owner must have finished every read that depended on the pin.
//
//mvlint:noalloc
func (p *ReaderPins) Release(slot int) {
	p.slots[slot].v.Store(0)
	p.hints.Put(&p.hintOf[slot])
}

// Min folds the pinned timestamps into bound: it returns the smallest
// occupied pin, or bound if no pin is smaller. The collector calls this
// AFTER loading the oracle (see the type comment for why the order matters).
//
//mvlint:noalloc
func (p *ReaderPins) Min(bound uint64) uint64 {
	m := bound
	for i := range p.slots {
		if v := p.slots[i].v.Load(); v != 0 && v < m {
			m = v
		}
	}
	return m
}

// Overflows reports how many Acquire calls found every slot occupied: every
// caller's, including deadlock-detector passes that then walk unpinned.
func (p *ReaderPins) Overflows() uint64 { return p.full.Load() }
