package ts

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// funnelHeat is the number of uncontended rounds the funnel tolerates before
// closing its combining window again. Contention (any failed TryLock, any
// round that served a waiter) resets the countdown; each solo round decays it
// by one. The value only trades how quickly the funnel reopens the direct
// fast path after a burst — correctness never depends on it.
const funnelHeat = 64

// funnelWaiter is one enrolled draw request, pooled and recycled. start is
// the handoff cell: 0 means "not served yet" (the oracle never issues 0), so
// a waiter spins on its own node — there is no shared completion flag.
type funnelWaiter struct {
	next  *funnelWaiter
	start atomic.Uint64
}

// FunnelStats is a snapshot of a funnel's counters. All draws are eventually
// visible here: Draws counts logical requests served, Physical counts
// fetch-and-adds actually issued on the oracle, Combined counts draws that
// rode another goroutine's fetch-and-add, and Batches counts rounds that
// served more than the combiner itself.
type FunnelStats struct {
	Draws    uint64
	Physical uint64
	Combined uint64
	Batches  uint64
}

// Ratio is the combining ratio: logical draws per physical oracle touch.
// 1.0 means every draw paid its own fetch-and-add (no combining); higher is
// better under contention.
func (s FunnelStats) Ratio() float64 {
	if s.Physical == 0 {
		return 1
	}
	return float64(s.Draws) / float64(s.Physical)
}

// Funnel is a combining funnel over an Oracle: draws that arrive while
// another draw is in flight enroll in a combining slot, and the goroutine
// holding the funnel (the combiner) issues ONE Oracle.NextN fetch-and-add
// covering every enrolled request, handing each participant a distinct
// timestamp from the block. The paper's single critical section (Section 6)
// is thereby touched once per *batch* of concurrent committers instead of
// once per committer.
//
// Correctness is inherited from the fetch-and-add, not argued anew: a
// participant's timestamp comes from a fetch-and-add that happens AFTER the
// participant called Next (it enrolled first, and the combiner swaps the
// enrollment list closed before drawing) and BEFORE its Next returns. The
// draw therefore linearizes somewhere inside the participant's own call,
// exactly like a direct Oracle.Next — timestamps remain unique and monotone,
// and a draw is never reordered past anything the caller did before or
// after it.
// In particular the MV/L commit-ordering invariant (end timestamp drawn
// while locks are held, docs/indexes.md) is preserved: a transaction that
// was delayed by another's locks enters the funnel only after the delayer's
// draw returned, so it lands in a strictly later batch and receives a
// strictly larger timestamp. Contrast with pre-reserving end timestamps,
// which is unsafe precisely because it moves the draw OUTSIDE the call (see
// docs/perf.md, "End timestamps are never pre-reserved").
//
// Under low contention every TryLock succeeds and a draw costs one
// uncontended lock acquisition plus its own fetch-and-add — the 1-CPU fast
// path. After contention is observed, the combiner briefly yields
// ("combining window") before closing a batch so peer committers that are
// runnable on the same processor can enroll; the window decays away after
// funnelHeat uncontended rounds. Callers holding engine locks must use
// NextLocked, which never opens the window: a yield inside a locked region
// would extend every blocked transaction's wait, trading oracle throughput
// for lock latency exactly where it hurts.
// The struct is laid out in three cache-line groups (mvlint/padcheck): the
// combining words every committer hits (TryLock word, enroll stack, heat),
// the waiter pool, and the mu-protected statistics counters, so pool and
// counter traffic never invalidates the line the TryLock spin reads.
//
//mvlint:padded
type Funnel struct {
	// mu serializes combiners. Only TryLock is ever used, so a goroutine
	// never blocks in the runtime on it: losers enroll in the stack below.
	mu     sync.Mutex //mvlint:cacheline
	head   atomic.Pointer[funnelWaiter]
	heat   atomic.Int32
	oracle *Oracle
	_      [32]byte

	pool sync.Pool //mvlint:cacheline
	_    [24]byte

	// Counters are updated only while holding mu (every draw is completed by
	// some combiner), so the Adds are uncontended; atomics make the loads in
	// Stats safe.
	draws    atomic.Uint64 //mvlint:cacheline
	physical atomic.Uint64
	combined atomic.Uint64
	batches  atomic.Uint64
	_        [32]byte
}

// NewFunnel returns a funnel drawing from o.
func NewFunnel(o *Oracle) *Funnel {
	f := &Funnel{oracle: o}
	f.pool.New = func() any { return new(funnelWaiter) }
	return f
}

// Oracle returns the underlying oracle.
func (f *Funnel) Oracle() *Oracle { return f.oracle }

// Next draws one timestamp through the funnel. The caller must not be
// holding engine locks (see NextLocked).
func (f *Funnel) Next() uint64 {
	if f.mu.TryLock() {
		return f.combine(true, true)
	}
	return f.enroll()
}

// NextLocked draws one timestamp for a caller that is holding engine locks
// (an MV/L or 1V committer drawing its end timestamp inside its locked
// region). It never opens the combining window: yielding there would extend
// the caller's lock hold times and stall every transaction blocked on them.
// Such draws still combine opportunistically — they join batches formed by
// windowed draws or natural pile-ups, and they serve enrolled waiters when
// they win the lock.
func (f *Funnel) NextLocked() uint64 {
	if f.mu.TryLock() {
		return f.combine(true, false)
	}
	return f.enroll()
}

// enroll publishes a draw request on the combining stack and waits to be
// served, self-serving if the funnel frees up first.
func (f *Funnel) enroll() uint64 {
	// A draw is in flight: enroll in its epoch and wait to be served. The
	// failed TryLock is the contention signal that (re)opens the combining
	// window.
	f.heat.Store(funnelHeat)
	w := f.pool.Get().(*funnelWaiter)
	for {
		h := f.head.Load()
		w.next = h
		if f.head.CompareAndSwap(h, w) {
			break
		}
	}
	for {
		if s := w.start.Load(); s != 0 {
			w.start.Store(0)
			w.next = nil
			f.pool.Put(w)
			return s
		}
		// Self-service guarantees progress without parking: if the lock has
		// been dropped and nobody is coming, the waiter becomes the combiner
		// and serves the stack — including, possibly, its own node.
		if f.mu.TryLock() {
			f.combine(false, false)
		}
		runtime.Gosched()
	}
}

// combine runs one funnel round. The caller must hold f.mu; combine unlocks
// it. own says whether the combiner draws a timestamp itself (false for a
// waiter draining the stack on behalf of its peers); if so it gets the FIRST
// timestamp of the drawn block, which is the return value. window permits
// the yield below; lock-holding callers pass false.
//
//mvlint:locked
func (f *Funnel) combine(own, window bool) uint64 {
	if window && f.heat.Load() > 0 {
		// Combining window: contention was seen recently, so yield once
		// before closing the batch. Runnable peer committers get scheduled,
		// fail TryLock (we hold it), and enroll — the point of the funnel.
		// On an uncontended engine heat is 0 and the draw goes straight
		// through.
		//mvlint:ignore lockedoracle the combining window IS a deliberate yield under mu (docs/perf.md); lock-holding callers pass window=false via NextLocked
		runtime.Gosched()
	}

	// Close the epoch: everything enrolled up to here shares one
	// fetch-and-add; later arrivals start a new epoch on a fresh stack. The
	// nil check keeps the solo fast path to a plain load — skipping the swap
	// cannot strand a waiter that enrolls right after it, because waiters
	// self-serve through TryLock once we release mu.
	var batch *funnelWaiter
	if f.head.Load() != nil {
		batch = f.head.Swap(nil)
	}
	var served uint64
	for w := batch; w != nil; w = w.next {
		served++
	}
	total := served
	if own {
		total++
	}
	var start uint64
	if total > 0 {
		start = f.oracle.NextN(total)
		f.physical.Add(1)
	}

	for w, v := batch, start+total-served; w != nil; v++ {
		// Read the link BEFORE publishing the start: the store hands the
		// node back to its owner, who may recycle it through the pool
		// immediately.
		next := w.next
		w.start.Store(v)
		w = next
	}

	f.draws.Add(total)
	if served > 0 {
		f.combined.Add(served)
		f.batches.Add(1)
		f.heat.Store(funnelHeat)
	} else if h := f.heat.Load(); h > 0 {
		// Solo round: cool down toward the windowless direct path. The
		// unsynchronized load/store pair is benign — concurrent writers only
		// move heat between "open" values or reset it to funnelHeat.
		f.heat.Store(h - 1)
	}
	f.mu.Unlock()
	return start
}

// Stats returns a snapshot of the funnel's counters.
func (f *Funnel) Stats() FunnelStats {
	return FunnelStats{
		Draws:    f.draws.Load(),
		Physical: f.physical.Load(),
		Combined: f.combined.Load(),
		Batches:  f.batches.Load(),
	}
}
