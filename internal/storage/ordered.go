package storage

// OrderedIndex is an ordered access method over a table: a concurrent
// skip list keyed by the index key, one bucket (version chain) per distinct
// key. It supports everything the hash index does plus ascending range
// scans, which is what opens range reads, ordered iteration and
// phantom-sensitive scan workloads to the engines (Section 2.1 only
// requires that records be reachable through *an* index; the paper's
// prototype used hash indexes, while Hekaton itself later added the
// Bw-tree for exactly this class of workloads).
//
// Concurrency model:
//   - Readers (point lookups, range cursors) are latch-free: skip-list
//     search follows atomic tower pointers, and bucket chains are the same
//     atomic version chains the hash index uses.
//   - Appending a version to an existing key's chain takes that bucket's
//     latch only — the steady-state update path.
//   - Inserting the first version of a brand-new key additionally takes the
//     skip list's insertion latch to link the new node. A key above the
//     index's maximum (a sorted load, an auto-increment key) links behind
//     the list's level tails with no descent; any other new key descends
//     twice, lock-free and then under the latch.
//   - Nodes are reclaimed when their key dies: when garbage collection
//     unlinks the last version of a key, Unlink marks the node logically
//     deleted (under the bucket latch, so a concurrent Link cannot be
//     stranded); the engine's GC round sweeps marked nodes out of the tower
//     levels and leaves them to the Go collector (docs/indexes.md, "Node
//     reclamation"). A cursor parked on a swept node keeps walking: dead
//     nodes retain their outgoing pointers.
//
// Phantom protection cannot reuse bucket locks — a key never inserted has
// no bucket to lock — so the index carries a RangeLockTable that
// pessimistic serializable scans lock ranges in and inserters consult.
type OrderedIndex struct {
	ord    int
	spec   IndexSpec
	list   SkipList[Bucket]
	rlocks RangeLockTable
}

func newOrderedIndex(ord int, spec IndexSpec) *OrderedIndex {
	return &OrderedIndex{ord: ord, spec: spec}
}

// Ord returns the index ordinal within its table.
func (ix *OrderedIndex) Ord() int { return ix.ord }

// Name returns the index name.
func (ix *OrderedIndex) Name() string { return ix.spec.Name }

// Ordered reports range-scan support.
func (ix *OrderedIndex) Ordered() bool { return true }

// Key extracts this index's key from a payload.
func (ix *OrderedIndex) Key(payload []byte) uint64 { return ix.spec.Key(payload) }

// Keys returns the number of live distinct keys (diagnostics). After
// reclamation this tracks the live key population, not the cumulative
// number of keys ever inserted.
func (ix *OrderedIndex) Keys() int { return ix.list.Len() }

// Lookup returns the bucket holding versions with exactly key, or nil when
// the key has no node. A logically deleted node's (empty) bucket may be
// returned; its chain is empty, which reads identically to an absent key.
func (ix *OrderedIndex) Lookup(key uint64) *Bucket {
	if n := ix.list.Get(key); n != nil {
		return &n.V
	}
	return nil
}

// Link inserts v at the head of its key's chain, creating the skip-list
// node on first insertion of the key — or reviving a node the garbage
// collector marked deleted but has not yet swept. If the node lost the race
// with the sweeper (it is already unlinked), the insert retries and creates
// a fresh node: versions are never linked into an unreachable chain.
func (ix *OrderedIndex) Link(v *Version) {
	key := KeyOf(ix, v)
	for {
		n := ix.list.GetOrCreate(key)
		b := &n.V
		b.latch()
		if !ix.list.Revive(n) {
			b.unlatch()
			continue // node already swept; a fresh node is needed
		}
		v.setNext(ix.ord, b.head.Load())
		b.head.Store(v)
		b.unlatch()
		return
	}
}

// Unlink removes v from its key's chain. When the chain drains, the node is
// marked logically deleted (rechecked under the bucket latch, which
// serializes against Link's revival) and queued for the sweeper.
func (ix *OrderedIndex) Unlink(v *Version) {
	n := ix.list.Get(KeyOf(ix, v))
	if n == nil {
		return
	}
	b := &n.V
	if !b.unlink(v, ix.ord) {
		return
	}
	b.latch()
	if b.head.Load() == nil {
		ix.list.MarkDeleted(n)
	}
	b.unlatch()
}

// SweepNodes unlinks up to max marked (logically deleted) nodes from the
// skip-list towers and returns how many it unlinked. The engine calls this
// from its GC round.
func (ix *OrderedIndex) SweepNodes(max int) int { return ix.list.SweepMarked(max) }

// NodeStats reports reclamation diagnostics: nodes awaiting sweep and the
// cumulative count of nodes allocated.
func (ix *OrderedIndex) NodeStats() (marked int, created uint64) {
	return ix.list.MarkedLen(), ix.list.Created()
}

// ScanRange returns a cursor over the buckets with keys in [lo, hi]
// inclusive, in ascending key order. An inverted range yields an exhausted
// cursor, not an error.
func (ix *OrderedIndex) ScanRange(lo, hi uint64) (RangeCursor, error) {
	if lo > hi {
		return RangeCursor{}, nil
	}
	return RangeCursor{node: ix.list.Seek(lo), hi: hi}, nil
}

// RangeLocks returns the index's range-lock table.
func (ix *OrderedIndex) RangeLocks() *RangeLockTable { return &ix.rlocks }
