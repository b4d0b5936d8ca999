// Package ts provides the global timestamp oracle.
//
// Timestamps are drawn from a single, monotonically increasing counter
// (paper Section 2.4): a transaction acquires a unique timestamp by
// atomically reading and incrementing the counter. The same sequence is used
// for transaction IDs, begin timestamps, and end timestamps, so every drawn
// value is unique and totally ordered. This is the only critical section in
// the whole engine (Section 6) and it is a single atomic increment.
package ts

import "sync/atomic"

// Oracle is a monotonically increasing timestamp source. The zero value is
// ready to use; the first drawn timestamp is 1, so 0 never appears as a
// valid timestamp or transaction ID.
type Oracle struct {
	counter atomic.Uint64
}

// Next atomically draws the next timestamp. The draw linearizes inside the
// call and never yields, so a committer may draw while holding its locks.
func (o *Oracle) Next() uint64 {
	return o.counter.Add(1)
}

// Current returns the most recently drawn timestamp. It is used as the
// logical read time of read-committed transactions ("always read the latest
// committed version", Section 3.4) because every version committed so far
// has an end or begin timestamp at most Current().
func (o *Oracle) Current() uint64 {
	return o.counter.Load()
}

// AdvanceTo raises the counter to at least v. It is used by tests and by
// recovery to resume the sequence above all persisted timestamps.
func (o *Oracle) AdvanceTo(v uint64) {
	for {
		cur := o.counter.Load()
		if cur >= v {
			return
		}
		if o.counter.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Funnel is the Oracle. The name exists only for the benchmark module
// (benchmark/probes.go); ROADMAP item 1(f) drops it there, then here.
type Funnel = Oracle

// NewFunnel returns o. It exists only for the benchmark module
// (benchmark/probes.go); ROADMAP item 1(f) drops it there, then here.
func NewFunnel(o *Oracle) *Funnel { return o }

// FunnelStats counts oracle draws. Every draw is one fetch-and-add, so Draws
// and Physical both hold the counter's current value; callers take deltas.
// The type exists for the benchmark module (benchmark/report.go); ROADMAP
// item 1(f) renames it.
type FunnelStats struct {
	Draws    uint64
	Physical uint64
}
