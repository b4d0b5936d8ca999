package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"unsafe"
)

// skipMaxLevel bounds skip-list tower height; 2^24 distinct keys stay within
// the expected O(log n) search cost.
const skipMaxLevel = 24

// Node lifecycle states. A node is born live, is marked deleted when the last
// entry of its value drains (the chain latch holder verifies emptiness), and
// is swept to dead when the reclaimer unlinks it from every tower level. A
// dead node is never reused: the Go collector frees it once no reader holds
// a pointer to it.
const (
	nodeLive uint32 = iota
	nodeDeleted
	nodeDead
)

// SkipNode is one key of a SkipList. The node embeds its value V by value so
// a key's payload (a Bucket for the multiversion ordered index, a record
// chain head for the single-version one) needs no extra allocation or
// indirection.
//
// A node is one allocation: a compact header with the tower inline after it,
// so a descent hop reads the successor's key and tower from one object.
// tower declares level 0 only; newSkipNode allocates taller nodes with the
// remaining levels trailing it, and level reaches them.
//
// Nodes are reclaimed in stages (see the state constants) so the index's
// footprint tracks live keys rather than every key ever inserted. A dead
// node keeps its tower pointers intact: a reader parked on it can always
// continue the traversal into the live list. Its key never changes, so
// lock-free readers never observe a node changing identity under them.
type SkipNode[V any] struct {
	key    uint64
	state  atomic.Uint32
	height uint32 // tower levels; fixed at allocation
	// V is the caller's per-key value, addressable via &n.V.
	V     V
	tower [1]atomic.Pointer[SkipNode[V]] // must stay last: levels ≥ 1 follow it
}

// Key returns the node's index key.
func (n *SkipNode[V]) Key() uint64 { return n.key }

// Next returns the node's level-0 successor (the next larger key), or nil.
func (n *SkipNode[V]) Next() *SkipNode[V] { return n.tower[0].Load() }

// level returns the node's level-i successor slot; the height bound keeps it
// inside the node's allocation. The offset is uintptr arithmetic, not
// unsafe.Add, because only this form is instrumented by checkptr (on under
// -race), which then verifies that the slot lies in level 0's allocation.
func (n *SkipNode[V]) level(i int) *atomic.Pointer[SkipNode[V]] {
	if uint(i) >= uint(n.height) {
		panic(errSkipLevel)
	}
	return (*atomic.Pointer[SkipNode[V]])(unsafe.Pointer(uintptr(unsafe.Pointer(&n.tower[0])) + uintptr(i)*unsafe.Sizeof(n.tower[0])))
}

// errSkipLevel is level's panic value: a prebuilt error, so the descents
// that inline level convert nothing to an interface and stay allocation-free.
var errSkipLevel = errors.New("storage: skip-list level above node height")

// skipNodeClass is a node followed in the same object by the rest of its
// tower, T: an array of tower slots the collector scans like any pointer.
type skipNodeClass[V, T any] struct {
	n SkipNode[V]
	t T
}

// newSkipNode allocates a node of the given height as one object, rounded
// up to a height class of 1, 2, 4, 8 or skipMaxLevel levels.
func newSkipNode[V any](height int) *SkipNode[V] {
	type slot = atomic.Pointer[SkipNode[V]]
	var n *SkipNode[V]
	switch {
	case height <= 1:
		n = new(SkipNode[V])
	case height <= 2:
		n = &new(skipNodeClass[V, [1]slot]).n
	case height <= 4:
		n = &new(skipNodeClass[V, [3]slot]).n
	case height <= 8:
		n = &new(skipNodeClass[V, [7]slot]).n
	default:
		n = &new(skipNodeClass[V, [skipMaxLevel - 1]slot]).n
	}
	n.height = uint32(height)
	return n
}

// SkipList is a concurrent skip list keyed by uint64. The zero value is an
// empty list ready for use.
//
// Readers (Get, Seek, Next traversal) are lock-free: they follow atomic
// pointers only and never block, matching the latch-free reader discipline
// of the hash index's bucket chains (Section 2.1). Node insertion is
// serialized by a mutex — creation happens once per live key, so the lock is
// off the steady-state update path, which only appends entries to an
// existing node's value.
//
// A key above the list's maximum — every key a sorted load or an
// auto-increment insert creates — is an append: the list keeps the last
// node of every level (the tail finger of Pugh's "A Skip List Cookbook"),
// which are exactly its predecessors, so it links with no descent at all.
// Other new keys take a lock-free miss and a descent under the latch.
//
// Node reclamation (MarkDeleted / SweepMarked) lets the list shrink when
// keys die: callers mark a node whose value drained, and a periodic sweep
// unlinks marked nodes from the towers under the insertion latch. A swept
// node is left to the Go collector rather than reused, so no reader needs
// to announce itself: a pointer a reader still holds keeps the node, and
// the dead nodes after it, alive.
type SkipList[V any] struct {
	// headNext is the sentinel tower: headNext[lvl] is the first node of
	// level lvl.
	headNext [skipMaxLevel]atomic.Pointer[SkipNode[V]]
	// mu serializes structural changes: node insertion and tower unlink.
	mu  sync.Mutex
	rng uint64 // xorshift64 state, guarded by mu
	// last[lvl] is the last node of level lvl (nil: the head), guarded by
	// mu. Inserts and sweeps keep it exact, so a key above last[0].key
	// links behind it without a descent.
	last [skipMaxLevel]*SkipNode[V]
	// maxKey is last[0]'s key (0 when the list is empty), readable without
	// mu: a larger key is absent, so GetOrCreate skips its lock-free Get.
	maxKey atomic.Uint64
	n      atomic.Int64
	// sweep is SweepMarked's scratch batch, kept across rounds; guarded by mu.
	sweep []*SkipNode[V]

	// reclaimMu guards marked. It nests inside mu (and inside the owner's
	// chain latches) and is never held across node traversal.
	reclaimMu sync.Mutex
	marked    []*SkipNode[V] // logically deleted, still linked

	created atomic.Uint64
}

// Len returns the number of live keys in the list (logically deleted nodes
// are not counted even while still physically linked).
func (s *SkipList[V]) Len() int { return int(s.n.Load()) }

// nextAt returns the level-lvl successor pointer of n, where nil n means the
// sentinel head. A node is only reached at a level below its height, so its
// tower (SkipNode.level) always has the slot.
func (s *SkipList[V]) nextAt(n *SkipNode[V], lvl int) *atomic.Pointer[SkipNode[V]] {
	if n == nil {
		return &s.headNext[lvl]
	}
	return n.level(lvl)
}

// findPred descends from the top level, returning the rightmost node at
// level 0 whose key is < key (nil when the head is the predecessor). When
// preds is non-nil it records the predecessor at every level for linking.
//
//mvlint:noalloc
func (s *SkipList[V]) findPred(key uint64, preds *[skipMaxLevel]*SkipNode[V]) *SkipNode[V] {
	var cur *SkipNode[V]
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := s.nextAt(cur, lvl).Load()
			if nxt == nil || nxt.key >= key {
				break
			}
			cur = nxt
		}
		if preds != nil {
			preds[lvl] = cur
		}
	}
	return cur
}

// Get returns the node with exactly key, or nil. Lock-free. The node may be
// logically deleted (empty value); callers that intend to repopulate it must
// go through Revive.
//
// The hit test runs on the successor pointers loaded during the descent —
// never on a re-load of the predecessor's pointer afterwards. A re-load races
// concurrent inserts: between the walk's load (which saw the target and
// broke) and the re-load, an insert of a key in (pred.key, key) rewrites
// pred's level-0 slot to the new intermediate node, and the equality check
// would turn a linked, reachable target into a spurious miss. Under two-phase
// locking that is a correctness bug, not a mere stale read: a reader holding
// a lock on key sees it vanish while inserts of *neighboring* keys proceed.
//
//mvlint:noalloc
func (s *SkipList[V]) Get(key uint64) *SkipNode[V] {
	var cur *SkipNode[V]
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := s.nextAt(cur, lvl).Load()
			if nxt == nil || nxt.key > key {
				break
			}
			if nxt.key == key {
				return nxt
			}
			cur = nxt
		}
	}
	return nil
}

// Seek returns the first node with key >= lo, or nil. Lock-free; the
// starting point of a range scan. Like Get, it returns the breaking
// successor observed by the level-0 walk itself: re-loading the
// predecessor's pointer after the walk races a concurrent insert of a key
// below lo and could hand the caller a node outside the requested range.
//
//mvlint:noalloc
func (s *SkipList[V]) Seek(lo uint64) *SkipNode[V] {
	var cur, first *SkipNode[V]
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := s.nextAt(cur, lvl).Load()
			if nxt == nil || nxt.key >= lo {
				first = nxt // level 0's break value is the answer
				break
			}
			cur = nxt
		}
	}
	return first
}

// GetOrCreate returns the node with key, linking a new one if absent. The
// returned node may be in the logically deleted state if a concurrent
// reclaimer marked it; callers that add entries must Revive it under their
// chain synchronization and retry on failure (the node was already
// unlinked, and the retry will create a fresh one). A new node is one
// allocation (newSkipNode).
func (s *SkipList[V]) GetOrCreate(key uint64) *SkipNode[V] {
	if key <= s.maxKey.Load() {
		if n := s.Get(key); n != nil {
			return n
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [skipMaxLevel]*SkipNode[V]
	if tail := s.last[0]; tail == nil || key > tail.key {
		preds = s.last
	} else {
		s.findPred(key, &preds)
		if n := s.nextAt(preds[0], 0).Load(); n != nil && n.key == key {
			return n // lost the race to another creator
		}
	}
	n := newSkipNode[V](s.randomLevel())
	n.key = key
	s.created.Add(1)
	// Point the new node at its successors before publishing it, then link
	// bottom-up: a reader that finds the node at any level can always
	// continue the descent through it.
	lvl := int(n.height)
	for i := 0; i < lvl; i++ {
		succ := s.nextAt(preds[i], i).Load()
		n.level(i).Store(succ)
		if succ == nil {
			s.setLast(i, n) // n is to be level i's last node
		}
	}
	for i := 0; i < lvl; i++ {
		s.nextAt(preds[i], i).Store(n)
	}
	s.n.Add(1)
	return n
}

// setLast records node (nil: the head) as the last node of level lvl; mu is
// held.
func (s *SkipList[V]) setLast(lvl int, node *SkipNode[V]) {
	s.last[lvl] = node
	if lvl == 0 {
		var k uint64
		if node != nil {
			k = node.key
		}
		s.maxKey.Store(k)
	}
}

// MarkDeleted moves a live node to the logically deleted state and queues it
// for the sweeper. The caller must hold the synchronization that serializes
// mutation of n.V (the chain latch for the multiversion index, the exclusive
// key cover for the single-version one) and must have verified under it that
// the value is empty — the state machine guarantees that a deleted node's
// value stays empty until it is revived. Returns false if the node was not
// live (already marked, or already dead).
func (s *SkipList[V]) MarkDeleted(n *SkipNode[V]) bool {
	if !n.state.CompareAndSwap(nodeLive, nodeDeleted) {
		return false
	}
	s.n.Add(-1)
	s.reclaimMu.Lock()
	s.marked = append(s.marked, n)
	s.reclaimMu.Unlock()
	return true
}

// Revive returns a node to the live state so entries can be added to its
// value again. It succeeds if the node is live or logically deleted; it
// fails if the reclaimer already swept the node (dead), in which case the
// caller must retry GetOrCreate — the key's node has left the list and a
// fresh one is needed. The CAS arbitrates the race with SweepMarked: exactly
// one of revival and sweep wins.
func (s *SkipList[V]) Revive(n *SkipNode[V]) bool {
	for {
		switch n.state.Load() {
		case nodeLive:
			return true
		case nodeDeleted:
			if n.state.CompareAndSwap(nodeDeleted, nodeLive) {
				s.n.Add(1)
				return true
			}
		case nodeDead:
			return false
		}
	}
}

// SweepMarked unlinks up to max logically deleted nodes from every tower
// level, under the insertion latch so structure changes stay serialized,
// and returns how many it unlinked. Marked nodes that were revived in the
// meantime are skipped. A swept node that was the last of a level hands
// that place to its predecessor there, so the list keeps no pointer to it.
//
// A swept node keeps its outgoing tower pointers: a reader parked on it
// mid-scan continues into nodes that were its successors at unlink time
// (possibly other dead nodes, whose own pointers again lead back into the
// live list). Such a reader may miss keys inserted after the unlink — the
// same "concurrent inserts may or may not be observed" contract a live
// cursor already has.
func (s *SkipList[V]) SweepMarked(max int) int {
	if max <= 0 {
		max = 1 << 30
	}
	s.reclaimMu.Lock()
	k := len(s.marked)
	s.reclaimMu.Unlock()
	if k == 0 {
		return 0
	}
	if k > max {
		k = max
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reclaimMu.Lock()
	k = min(k, len(s.marked))
	batch := append(s.sweep[:0], s.marked[:k]...)
	m := copy(s.marked, s.marked[k:])
	clear(s.marked[m:])
	s.marked = s.marked[:m]
	s.reclaimMu.Unlock()

	swept := 0
	var preds [skipMaxLevel]*SkipNode[V]
	for _, n := range batch {
		if !n.state.CompareAndSwap(nodeDeleted, nodeDead) {
			continue // revived; it re-queues if its value drains again
		}
		s.findPred(n.key, &preds)
		for lvl := int(n.height) - 1; lvl >= 0; lvl-- {
			p := s.nextAt(preds[lvl], lvl)
			if p.Load() == n {
				p.Store(n.level(lvl).Load())
			}
			if s.last[lvl] == n {
				s.setLast(lvl, preds[lvl])
			}
		}
		swept++
	}
	clear(batch)
	s.sweep = batch[:0]
	return swept
}

// MarkedLen returns the number of nodes awaiting sweep (diagnostics).
func (s *SkipList[V]) MarkedLen() int {
	s.reclaimMu.Lock()
	defer s.reclaimMu.Unlock()
	return len(s.marked)
}

// Created returns the cumulative count of nodes allocated from the heap.
func (s *SkipList[V]) Created() uint64 { return s.created.Load() }

// randomLevel draws a tower height with P(level > k) = 2^-k; mu is held.
func (s *SkipList[V]) randomLevel() int {
	if s.rng == 0 {
		s.rng = 0x9E3779B97F4A7C15
	}
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	lvl := 1
	for x&1 == 1 && lvl < skipMaxLevel {
		lvl++
		x >>= 1
	}
	return lvl
}
