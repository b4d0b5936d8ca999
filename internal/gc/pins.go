package gc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultPinSlots is the minimum total reader-pin capacity. The table is
// striped per processor (see ReaderPins), so the real capacity is the stripe
// count times the per-stripe slot count, never below this. Overflow is
// handled by the caller (fall back to transaction-table registration), so
// capacity only bounds the fast path, not correctness.
const DefaultPinSlots = 128

// minStripeSlots is the floor on slots per stripe: enough that a burst of
// readers migrating onto one processor rarely spills to a neighbour stripe.
const minStripeSlots = 8

// pinSlot is one published read timestamp, padded to a cache line so
// neighbouring pins don't false-share under concurrent Acquire/Release.
//
//mvlint:padded
type pinSlot struct {
	v atomic.Uint64 //mvlint:cacheline
	_ [56]byte
}

// pinStripe is one processor's portion of the pin table. Acquire bumps stamp
// BEFORE and AFTER publishing a pin into a slot (a seqlock-style double bump;
// see the ReaderPins comment for why one bump is not enough); Release bumps
// it once, after clearing a slot. The padding keeps a stripe's hot word (the
// stamp, touched by every local Acquire/Release) off its neighbours' cache
// lines; the slots themselves are individually padded.
//
// cacheStamp and cacheMin are Min's cache: the minimum pinned timestamp of
// the slots (^uint64(0) when none was pinned), valid exactly while stamp
// still equals cacheStamp. The pair is guarded by its own seqlock, cacheSeq
// (odd while a Min call rewrites it), so concurrent Min calls can never use
// one call's minimum with another's stamp, and a Min that finds the cache
// valid writes nothing.
//
//mvlint:padded
type pinStripe struct {
	stamp      atomic.Uint64 //mvlint:cacheline
	slots      []pinSlot
	cacheSeq   atomic.Uint64
	cacheStamp atomic.Uint64
	cacheMin   atomic.Uint64
	_          [8]byte
}

// cached returns the stripe's cached minimum if it was scanned at stamp.
func (st *pinStripe) cached(stamp uint64) (uint64, bool) {
	seq := st.cacheSeq.Load()
	if seq&1 != 0 || st.cacheStamp.Load() != stamp {
		return 0, false
	}
	m := st.cacheMin.Load()
	return m, st.cacheSeq.Load() == seq
}

// setCache publishes min as the stripe's minimum at stamp, unless another
// Min call is rewriting the cache at this moment (the next round rescans).
func (st *pinStripe) setCache(stamp, min uint64) {
	seq := st.cacheSeq.Load()
	if seq&1 != 0 || !st.cacheSeq.CompareAndSwap(seq, seq+1) {
		return
	}
	st.cacheStamp.Store(stamp)
	st.cacheMin.Store(min)
	st.cacheSeq.Store(seq + 2)
}

// pinHint is a preallocated per-slot token circulated through a sync.Pool to
// give Acquire processor affinity: Release puts the freed slot's token into
// the pool, and sync.Pool's per-P caching hands it back to the next Acquire
// on the same processor, which reclaims the (likely still free, likely
// cache-hot) slot with a single CAS. Tokens are allocated once in Init, so
// the pool never allocates in steady state; losing tokens to the runtime's
// pool purge just means the next Acquire takes the cold path.
type pinHint struct{ slot int32 }

// ReaderPins publishes the read timestamps of readers that are NOT
// registered in the transaction table: read-only fast-lane transactions,
// checkpoint captures and deadlock-detector passes. The garbage collector
// folds the minimum pinned timestamp into its watermark, so versions (and
// pooled transaction objects) such a reader can still see are never recycled
// under it.
//
// The table is striped into runtime.NumCPU padded stripes so concurrent
// readers on different processors publish into different cache lines, and
// the collector's Min can cache a per-stripe minimum instead of rescanning
// every slot each round.
//
// Publication protocol (the ordering matters; Go atomics are sequentially
// consistent):
//
//	reader: p := oracle.Current()     // provisional pin
//	        slot := pins.Acquire(p)   // stamp bump, publish, stamp bump —
//	                                  // all BEFORE choosing a read time
//	        rt := oracle.Current()    // actual read time, rt >= p
//	gc:     cur := oracle.Current()   // BEFORE scanning pins
//	        wm := pins.Min(min(tableMinima, cur))
//
// If the collector observes the pin — in a slot scan or through a cache
// entry whose scan saw the publish — then wm <= p <= rt. If a direct slot
// scan misses the pin, the slot load that missed it precedes the publish in
// the total order, so the collector's earlier Current() load precedes the
// reader's later one: rt >= cur >= wm. Either way wm <= rt, and a version is
// only garbage when its end timestamp is <= wm, which the reader (visibility
// requires rt < end) could never see. The same argument covers pointers the
// reader already holds: recycling a version or transaction object stamped at
// S requires wm > S, and S is always drawn after the pin value, so S >= p.
//
// The cache needs the SECOND stamp bump, after the publish. With only the
// pre-publish bump there is a poisoning interleaving: the reader bumps the
// stamp, Min loads the post-bump stamp, Min's slot scan runs before the
// publish lands and misses the pin, and the installed cache entry — stamped
// with the current value — keeps validating on every later call while the
// reader traverses, hiding its pin from the watermark indefinitely. The
// post-publish bump closes this: an entry whose scan missed a published pin
// carries a stamp the pin's second bump has already exceeded by the time
// Acquire returns, so it can only validate while the reader is still inside
// Acquire — at which point the reader holds no pointers and every load of
// its upcoming traversal follows the scan that missed it, which is exactly
// the scan-miss case above.
//
// Release clears the slot and then bumps the stripe stamp once; a cache
// entry that predates a release is merely conservative (it still contains
// the released pin), never unsafe.
//
// Init sizes the table; an uninitialized ReaderPins has no stripes, so every
// Acquire overflows into the registered fallback (safe, just slow).
type ReaderPins struct {
	stripes []pinStripe
	per     int // slots per stripe
	full    atomic.Uint64
	rr      atomic.Uint32 // cold-path stripe rotor (no hint available)
	hints   sync.Pool
	hintOf  []pinHint // one preallocated token per slot, indexed by slot
}

// Init sizes the pin table: runtime.NumCPU (rounded up to a power of two)
// stripes with total capacity at least max(n, DefaultPinSlots) slots. It
// must be called before the table is shared; it is not safe to resize a
// table that readers are already using.
func (p *ReaderPins) Init(n int) {
	ns := 1
	for ns < runtime.NumCPU() {
		ns <<= 1
	}
	if n <= 0 {
		n = DefaultPinSlots
	}
	per := (n + ns - 1) / ns
	if per < minStripeSlots {
		per = minStripeSlots
	}
	p.per = per
	p.stripes = make([]pinStripe, ns)
	slots := make([]pinSlot, ns*per)
	for i := range p.stripes {
		p.stripes[i].slots = slots[i*per : (i+1)*per : (i+1)*per]
		p.stripes[i].cacheMin.Store(^uint64(0)) // no pins at stamp 0
	}
	p.hintOf = make([]pinHint, ns*per)
	for i := range p.hintOf {
		p.hintOf[i].slot = int32(i)
	}
	// p.hints needs no setup: tokens enter only through Release, and Get on
	// an empty pool returns nil (no New), which Acquire treats as "no hint".
}

// Slots returns the total slot capacity.
func (p *ReaderPins) Slots() int { return len(p.stripes) * p.per }

// Stripes returns the stripe count (diagnostics and tests).
func (p *ReaderPins) Stripes() int { return len(p.stripes) }

// Acquire claims a free slot, publishes rt in it, and returns the slot
// index, or -1 when every slot is occupied (the caller must then fall back
// to a mechanism the watermark can see, e.g. table registration). rt of 0
// (pristine oracle) is promoted to 1 so the slot never looks free; nothing
// is visible at read time 0, so the stricter pin is harmless.
//
//mvlint:noalloc
func (p *ReaderPins) Acquire(rt uint64) int {
	ns := len(p.stripes)
	if ns == 0 {
		p.full.Add(1)
		return -1
	}
	if rt == 0 {
		rt = 1
	}
	// Affinity fast path: the slot most recently released on this
	// processor, handed back by the pool's per-P cache.
	base := 0
	if h, _ := p.hints.Get().(*pinHint); h != nil && int(h.slot) < ns*p.per {
		i := int(h.slot)
		st := &p.stripes[i/p.per]
		st.stamp.Add(1) // BEFORE the publish; see the type comment
		s := &st.slots[i%p.per].v
		if s.Load() == 0 && s.CompareAndSwap(0, rt) {
			st.stamp.Add(1) // AFTER the publish; see the type comment
			return i
		}
		base = i / p.per // slot taken meanwhile: probe its stripe first
	} else {
		base = int(p.rr.Add(1)) & (ns - 1)
	}
	for off := 0; off < ns; off++ {
		si := (base + off) & (ns - 1)
		st := &p.stripes[si]
		st.stamp.Add(1) // covers every publish attempt in this stripe
		for j := range st.slots {
			s := &st.slots[j].v
			if s.Load() == 0 && s.CompareAndSwap(0, rt) {
				st.stamp.Add(1) // AFTER the publish; see the type comment
				return si*p.per + j
			}
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
	st := &p.stripes[slot/p.per]
	st.slots[slot%p.per].v.Store(0)
	st.stamp.Add(1)
	p.hints.Put(&p.hintOf[slot])
}

// Min folds the pinned timestamps into bound: it returns the smallest
// occupied pin, or bound if no pin is smaller. The collector calls this
// AFTER loading the oracle (see the type comment for why the order matters).
//
// Each stripe's scan result is cached against the stripe's stamp: a stripe
// untouched since the last scan is folded in O(1) from the cache, so on a
// many-core box a collection round reads one cache line per idle stripe
// instead of walking every slot. The cache is rewritten in place under its
// seqlock (pinStripe), so a round allocates nothing; racing Min calls can
// skip each other's rewrites (the next round rescans) but never mix one
// call's minimum with another's stamp.
func (p *ReaderPins) Min(bound uint64) uint64 {
	m := bound
	for i := range p.stripes {
		st := &p.stripes[i]
		s1 := st.stamp.Load() // BEFORE the slot scan
		sm, ok := st.cached(s1)
		if !ok {
			sm = ^uint64(0)
			for j := range st.slots {
				if v := st.slots[j].v.Load(); v != 0 && v < sm {
					sm = v
				}
			}
			// Publish for the next round; losing the race just means a
			// rescan. A pin our scan missed finishes its post-publish stamp
			// bump before the pinning Acquire returns, so the entry stops
			// validating before that reader can hold any node pointer.
			st.setCache(s1, sm)
		}
		if sm < m {
			m = sm
		}
	}
	return m
}

// Overflows reports how many Acquire calls found every slot occupied.
func (p *ReaderPins) Overflows() uint64 { return p.full.Load() }
