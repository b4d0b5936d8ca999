package mv

import (
	"repro/internal/deadlock"
	"repro/internal/field"
	"repro/internal/txn"
)

// detectorSource adapts the engine to the deadlock detector (Section 4.4).
// The detector serializes its passes, so the scratch slice is reused by
// every one of them.
type detectorSource struct {
	e       *Engine
	blocked []*txn.Txn
}

// Snapshot builds the wait-for graph in the paper's three steps: nodes for
// transactions blocked on wait-for dependencies, explicit edges from
// WaitingTxnLists, and implicit edges from read-locked versions (a wait-for
// dependency on a read-locked version stands for dependencies on every
// transaction holding a read lock on it, recovered from the read-lock lists
// transactions publish before they wait).
//
// The walk is epoch-pinned: a reader pin taken before the table iteration
// keeps the GC watermark below every transaction observed during the walk
// (removal stamps are drawn after the pin, so txLimbo cannot drain them),
// which means no collected pointer can be recycled mid-iteration.
// Without the pin a Txn could be Reset to a new identity between collection
// and the Blocked/Waiters reads; identity revalidation downstream kept that
// benign (worst case a spurious abort of the wrong incarnation was
// prevented by RunOnce's StillBlocked recheck), but the pin removes the
// window entirely. If the pin table is full the walk proceeds unpinned,
// degrading to the old benign behavior.
func (s *detectorSource) Snapshot(g *deadlock.Graph) {
	e := s.e
	if slot := e.pins.Acquire(e.oracle.Current()); slot >= 0 {
		defer e.pins.Release(slot)
	}

	// Step 1: nodes are transactions with a positive wait-for counter
	// (Blocked). Some may still be in normal processing and have published
	// no read locks yet; that is harmless, because a transaction that is not
	// waiting cannot close a deadlock, and one waiting in WaitWaitFors has
	// published its list. Usually there are no nodes, and the pass ends here
	// having allocated nothing.
	blocked := s.blocked[:0]
	e.txns.ForEach(func(t *txn.Txn) {
		if t.Blocked() {
			blocked = append(blocked, t)
			g.AddNode(t.ID())
		}
	})

	for _, t := range blocked {
		// Step 2: explicit dependencies. Every transaction in t's
		// WaitingTxnList waits for t.
		for _, wid := range t.Waiters() {
			g.AddEdge(wid, t.ID())
		}
		// Step 3: implicit dependencies, from t's published read-lock list.
		// If a version read-locked by t is write locked by another
		// transaction T2, T2 waits for t's lock release. t publishes after
		// releaseSelfWriteReadLocks, so the list holds no version t itself
		// write-locked; the writer check keeps it that way regardless, since
		// a self-edge would be a one-node "cycle" aborting a healthy
		// transaction.
		for _, v := range t.SnapshotReadLocks() {
			w := v.End()
			if field.IsLock(w) && field.HasWriter(w) && field.Writer(w) != t.ID() {
				g.AddEdge(field.Writer(w), t.ID())
			}
		}
	}
	clear(blocked) // Txns are pooled: keep no pointer to one between passes
	s.blocked = blocked[:0]
}

// StillBlocked re-verifies that a cycle participant is really still blocked.
func (s *detectorSource) StillBlocked(id uint64) bool {
	e := s.e
	t, ok := e.txns.Lookup(id)
	return ok && t.Blocked()
}

// EndTimestampOf returns the transaction's end timestamp, falling back to
// its ID (begin timestamp) when it has not precommitted — transactions
// blocked on wait-fors never have an end timestamp yet, and IDs preserve the
// same age order.
func (s *detectorSource) EndTimestampOf(id uint64) uint64 {
	e := s.e
	t, ok := e.txns.Lookup(id)
	if !ok {
		return 0
	}
	if end := t.End(); end != 0 {
		return end
	}
	return t.ID()
}

// Abort asks a deadlock victim to abort; its wait loop observes AbortNow.
func (s *detectorSource) Abort(id uint64) {
	e := s.e
	if t, ok := e.txns.Lookup(id); ok {
		t.RequestAbort()
	}
}
