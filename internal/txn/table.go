package txn

import (
	"math"
	"sync"
	"sync/atomic"
)

// atomicPaddedUint64 is an atomic uint64 padded out to a cache line so the
// 64 shard minima don't false-share when OldestBegin sweeps them.
//
//mvlint:padded
type atomicPaddedUint64 struct {
	v atomic.Uint64 //mvlint:cacheline
	_ [56]byte
}

func (a *atomicPaddedUint64) Load() uint64   { return a.v.Load() }
func (a *atomicPaddedUint64) Store(x uint64) { a.v.Store(x) }

const tableShards = 64

// noMin is the per-shard minimum sentinel for an empty shard. It is larger
// than any real timestamp (timestamps fit in 63 bits).
const noMin = math.MaxUint64

// Table is the transaction table: a sharded map from transaction ID to
// transaction object. Visibility checks look up the transactions whose IDs
// appear in version Begin/End words; a missing entry means the transaction
// has terminated and finalized its timestamps (Tables 1 and 2: "Terminated
// or not found: reread the field").
//
// The table also tracks the set of active transactions so the garbage
// collector can compute the oldest visible read time. Each shard caches the
// minimum begin timestamp of its entries, maintained on Register/Remove, so
// OldestBegin is O(shards) atomic loads instead of a locked walk of every
// entry — the watermark computation stays off the transaction hot path.
//
// A transaction registers at Begin, before it can publish its ID into any
// shared state (version words, lock holder lists, commit or wait-for
// dependency sets). The one exception is an Anonymous reader, which never
// registers and is covered by a gc.ReaderPins pin instead, since
// OldestBegin cannot see it.
type Table struct {
	shards [tableShards]tableShard
}

// tableShard puts the minimum first so the 64 minima form a stride-64
// array OldestBegin sweeps with one load per line, and pads the tail so
// one shard's lock/map traffic never lands on the next shard's minimum.
//
//mvlint:padded
type tableShard struct {
	// min is the smallest Begin among the shard's entries, or noMin when the
	// shard is empty. Written under mu; read with an atomic load by
	// OldestBegin.
	min atomicPaddedUint64 //mvlint:cacheline
	mu  sync.RWMutex       //mvlint:cacheline
	m   map[uint64]*Txn
	_   [32]byte
}

// NewTable returns an empty transaction table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]*Txn)
		t.shards[i].min.Store(noMin)
	}
	return t
}

func (tt *Table) shard(id uint64) *tableShard {
	// IDs are sequential; mix them so neighbouring transactions spread
	// across shards.
	h := id * 0x9E3779B97F4A7C15
	return &tt.shards[h>>58%tableShards]
}

// Register inserts a transaction into the table.
func (tt *Table) Register(t *Txn) {
	s := tt.shard(t.ID())
	b := t.Begin()
	s.mu.Lock()
	s.m[t.ID()] = t
	if b < s.min.Load() {
		s.min.Store(b)
	}
	s.mu.Unlock()
}

// Lookup finds a transaction by ID. The second result is false if the
// transaction has terminated (or never existed).
func (tt *Table) Lookup(id uint64) (*Txn, bool) {
	s := tt.shard(id)
	s.mu.RLock()
	t, ok := s.m[id]
	s.mu.RUnlock()
	return t, ok
}

// Remove deletes a transaction from the table after postprocessing. The
// object itself may live on: stale pointers obtained before the removal can
// still be dereferenced (all shared fields are synchronized), they just
// observe the finalized state.
func (tt *Table) Remove(id uint64) {
	s := tt.shard(id)
	s.mu.Lock()
	t, ok := s.m[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.m, id)
	if t.Begin() == s.min.Load() {
		// The shard minimum left; rescan the (small) shard for the new one.
		newMin := uint64(noMin)
		for _, o := range s.m {
			if b := o.Begin(); b < newMin {
				newMin = b
			}
		}
		s.min.Store(newMin)
	}
	s.mu.Unlock()
}

// OldestBegin returns the smallest begin timestamp of any registered
// transaction, or fallback if the table is empty. Versions whose end
// timestamp is at or below this watermark are invisible to every current and
// future transaction and can be garbage collected.
func (tt *Table) OldestBegin(fallback uint64) uint64 {
	oldest := uint64(noMin)
	for i := range tt.shards {
		if m := tt.shards[i].min.Load(); m < oldest {
			oldest = m
		}
	}
	if oldest == noMin || oldest > fallback {
		return fallback
	}
	return oldest
}

// ForEach calls fn for every registered transaction. It is used by the
// deadlock detector to enumerate blocked transactions. fn runs under the
// shard's read lock (so a pass over an idle table allocates nothing) and
// must not call back into the table.
func (tt *Table) ForEach(fn func(*Txn)) {
	for i := range tt.shards {
		s := &tt.shards[i]
		s.mu.RLock()
		for _, t := range s.m {
			fn(t)
		}
		s.mu.RUnlock()
	}
}

// Len returns the number of registered transactions.
func (tt *Table) Len() int {
	n := 0
	for i := range tt.shards {
		s := &tt.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
