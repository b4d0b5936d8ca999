// Package gc reclaims obsolete versions (Section 2.3).
//
// Every update creates a new version, so old versions must be discarded once
// they are no longer visible to any transaction. A version is garbage when
// its end timestamp precedes the begin timestamp of the oldest active
// transaction (the watermark): no current transaction's logical read time
// can fall inside its valid interval, and future transactions read even
// later. Versions created by aborted transactions (begin = infinity) are
// garbage immediately.
//
// Collection is cooperative, as in the paper's prototype: transactions
// retire their replaced versions as part of postprocessing, and worker
// threads periodically call Collect to unlink a bounded amount of garbage
// from the indexes. The work is fully parallelizable; the retire queue is
// sharded to keep contention low.
package gc

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

const queueShards = 16

// spareMax caps, in entries, the retire-queue array a shard keeps for reuse.
// A burst (a long reader holding the watermark back) grows a shard's queue
// far past its steady-state size; once the burst drains, an array above the
// cap goes back to the runtime instead of staying pinned at its peak.
const spareMax = 4096

type retired struct {
	table *storage.Table
	v     *storage.Version
}

// Collector tracks retired versions and unlinks them once they fall below
// the visibility watermark.
type Collector struct {
	// watermark returns the oldest logical read time any current or future
	// transaction can use (the minimum active begin timestamp, or the
	// current clock when idle).
	watermark func() uint64
	// clock returns the current value of the engine's timestamp counter;
	// optional, required only for recycling (SetRecycler).
	clock func() uint64
	// free receives versions that are safe to reuse: unlinked from every
	// index, with every transaction that was active at unlink time finished.
	free func(*storage.Version)

	// lastWM caches the watermark computed by the most recent Collect round,
	// so the engine's other quiescence queue (transaction objects) reads one
	// atomic instead of recomputing the minimum.
	lastWM atomic.Uint64

	shards   [queueShards]queueShard
	next     atomic.Uint64
	pending  atomic.Int64
	retireCt atomic.Uint64
	reclaim  atomic.Uint64

	// limbo holds versions unlinked from the indexes, stamped with the clock
	// value after the unlink, until the watermark passes the stamp and no
	// in-flight reader can still hold them.
	limbo storage.Limbo[*storage.Version]
}

// queueShard is one retire queue with two buffers. Collect detaches the
// live one and swaps the spare in, so a Retire landing on the shard
// meanwhile appends to warm memory instead of regrowing a nil slice.
type queueShard struct {
	mu sync.Mutex
	// q is the live queue Retire appends to, oldest first.
	q []retired
	// spare is an empty array, the one the last round drained.
	spare []retired
	// busy marks a shard whose queue a Collect holds detached. A concurrent
	// Collect skips the shard, so the survivors of the one round in flight
	// always requeue ahead of everything retired after them.
	busy bool
}

// NewCollector creates a collector. watermark must be safe for concurrent
// use.
func NewCollector(watermark func() uint64) *Collector {
	return &Collector{watermark: watermark}
}

// SetRecycler enables version recycling: unlinked versions are stamped with
// clock() and handed to free once the watermark exceeds their stamp. Any
// transaction that could have reached the version through an index was
// active before the unlink, so its begin timestamp is below the stamp; when
// the watermark (minimum active begin) passes the stamp, no such transaction
// remains and the version can be reused. Must be called before the collector
// is shared.
func (c *Collector) SetRecycler(clock func() uint64, free func(*storage.Version)) {
	c.clock = clock
	c.free = free
}

// Watermark returns the watermark cached by the most recent Collect round
// (zero before the first round). Callers that only need a conservative
// bound — anything below it is quiesced — can use this instead of
// recomputing the minimum.
func (c *Collector) Watermark() uint64 { return c.lastWM.Load() }

// Retire hands a replaced or aborted version to the collector. The version's
// End word must already be finalized (a timestamp, or begin = infinity for
// aborted creations).
//
//mvlint:noalloc
func (c *Collector) Retire(table *storage.Table, v *storage.Version) {
	i := c.next.Add(1) % queueShards
	s := &c.shards[i]
	s.mu.Lock()
	s.q = append(s.q, retired{table, v})
	s.mu.Unlock()
	c.retireCt.Add(1)
	c.pending.Add(1)
}

// Collect examines up to limit retired versions, unlinking those that are
// garbage and requeueing the rest. It returns the number reclaimed. Workers
// call this cooperatively between transactions.
func (c *Collector) Collect(limit int) int {
	// Compute the watermark once per round (O(shards) atomic loads), cache
	// it for other consumers, and release quiesced versions to the recycler
	// — even when no new garbage is pending, so read-mostly workloads still
	// advance recycling.
	wm := c.watermark()
	c.lastWM.Store(wm)
	if c.free != nil {
		c.limbo.Drain(func(stamp uint64) bool { return stamp < wm }, 0, c.free)
	}
	if c.pending.Load() == 0 {
		return 0 // fast path for read-mostly workloads
	}
	if limit <= 0 {
		limit = 1 << 30
	}
	reclaimed := 0
	examined := 0
	for i := range c.shards {
		s := &c.shards[i]
		// Take the shard's queue and work on it with the lock released:
		// Unlink latches buckets and walks skip-list towers, and a committer
		// whose Retire lands on this shard meanwhile would park behind all
		// of it — a thread sleep and wake-up on the commit path.
		s.mu.Lock()
		if s.busy || len(s.q) == 0 {
			s.mu.Unlock()
			continue
		}
		q := s.q
		s.q, s.spare, s.busy = s.spare, nil, true
		s.mu.Unlock()
		// Compact what survives to the front of q, in order.
		kept, j := 0, 0
		for ; j < len(q) && examined < limit; j++ {
			r := q[j]
			examined++
			if r.v.IsGarbage(wm) {
				if r.table.Unlink(r.v) {
					reclaimed++
					if c.free != nil {
						c.limbo.Defer(r.v, c.clock())
					}
				}
				c.pending.Add(-1)
			} else {
				q[kept] = r
				kept++
			}
		}
		if kept < j {
			kept += copy(q[kept:], q[j:]) // the unexamined tail
			clear(q[kept:])
		} else {
			kept = len(q)
		}
		s.requeue(q[:kept])
		if examined >= limit {
			break
		}
	}
	c.reclaim.Add(uint64(reclaimed))
	return reclaimed
}

// requeue puts a detached queue's survivors back ahead of whatever was
// retired meanwhile, and keeps the array the arrivals were appended to as
// the next spare.
func (s *queueShard) requeue(kept []retired) {
	s.mu.Lock()
	arrivals := s.q
	if cap(kept) > spareMax && len(kept)+len(arrivals) <= spareMax {
		// kept is what a burst left behind and what it holds now fits the
		// cap: move the survivors in front of the arrivals and let it go.
		s.q = slices.Insert(arrivals, 0, kept...)
	} else {
		s.q = append(kept, arrivals...)
		clear(arrivals)
		if cap(arrivals) <= spareMax {
			s.spare = arrivals[:0]
		}
	}
	s.busy = false
	s.mu.Unlock()
}

// Pending returns the number of versions awaiting collection, not counting
// the ones a concurrent Collect is examining at this moment.
func (c *Collector) Pending() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.q)
		s.mu.Unlock()
	}
	return n
}

// Stats returns cumulative retire and reclaim counts.
func (c *Collector) Stats() (retired, reclaimed uint64) {
	return c.retireCt.Load(), c.reclaim.Load()
}
