package storage

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/keyenc"
)

// KeyFunc extracts the index key from a record payload. Payload layouts are
// application-defined; the engine only needs a 64-bit key per index. It must
// be a pure function of the payload: a version caches only its primary key,
// so the MV engine calls the other indexes' key functions again whenever it
// needs a key (KeyOf, MatchKey).
type KeyFunc func(payload []byte) uint64

// IndexSpec describes one index of a table.
type IndexSpec struct {
	// Name identifies the index for lookups and diagnostics.
	Name string
	// Key extracts the index key from a payload.
	Key KeyFunc
	// Ordered selects an ordered (range-scannable) index instead of a hash
	// index. Ordered indexes support ScanRange; Buckets is ignored.
	Ordered bool
	// Composite, when non-nil, documents the index key as an
	// order-preserving packed tuple (see keyenc.Layout): Key must return
	// Composite.Encode of the payload's fields. The engines below treat the
	// key as an opaque uint64 — packing is what keeps the skip list, the
	// version words and all three range-lock schemes unchanged — while the
	// layout lets the layers above (core.Tx.ScanPrefix) turn a field prefix
	// into an exact [lo, hi] scan or lock range. Meaningful with Ordered
	// (prefix scans need key order); legal on a hash index for exact-tuple
	// point lookups.
	Composite *keyenc.Layout
	// Buckets is the hash table size; it is rounded up to a power of two.
	// The paper sizes hash tables so there are no collisions: with at least
	// as many buckets as keys, BucketMap gives each of the dense keys
	// 0..n-1 a bucket of its own, and other key sets collide no more often
	// than under a plain hash. Callers should pass at least the expected
	// row count.
	Buckets int
}

// TableSpec describes a table and its indexes.
type TableSpec struct {
	Name    string
	Indexes []IndexSpec
}

// ErrUnordered is returned when a range scan is attempted on an index that
// does not maintain key order (a hash index).
var ErrUnordered = errors.New("storage: index does not support range scans")

// ErrDuplicateKey is returned by an insert whose primary key (the key of
// index 0) another record already holds. Both engines return it, so
// errors.Is matches across them.
var ErrDuplicateKey = errors.New("storage: duplicate primary key")

// KeyMatch picks the versions that hold one key out of a bucket chain of one
// index. An ordered index's chain holds exactly one key, so every version
// matches; a hash chain also holds colliding keys, compared through the
// cached primary key on ordinal 0 and through the index's key function,
// taken out of the Index interface once per walk, on the other ordinals.
type KeyMatch struct {
	key uint64
	fn  KeyFunc // nil: compare the cached primary key
	all bool    // ordered index: every version holds key
}

// MatchKey returns the filter for key on a chain of ix.
func MatchKey(ix Index, key uint64) KeyMatch {
	h, ok := ix.(*HashIndex)
	switch {
	case !ok:
		return KeyMatch{all: true}
	case h.ord == 0:
		return KeyMatch{key: key}
	default:
		return KeyMatch{key: key, fn: h.spec.Key}
	}
}

// Holds reports whether v holds the key.
func (m KeyMatch) Holds(v *Version) bool {
	switch {
	case m.all:
		return true
	case m.fn == nil:
		return v.key0 == m.key
	default:
		return m.fn(v.Payload()) == m.key
	}
}

// Index is a table access method. Records are only reachable through
// indexes (Section 2.1); the engines never touch a version except through
// one of these.
//
// Two implementations exist: the hash index of the paper's prototype
// (point lookups, latch-free bucket-chain readers) and an ordered skip-list
// index that additionally supports range scans. Readers of either kind
// follow atomic pointers only; structural changes take short per-bucket
// latches (plus, for the ordered index, a per-index latch on first
// insertion of a new key).
type Index interface {
	// Ord is the index ordinal within its table: versions reached through
	// this index chain via their ord-th next pointer.
	Ord() int
	// Name returns the index name.
	Name() string
	// Ordered reports whether ScanRange is supported.
	Ordered() bool
	// Key extracts this index's key from a payload.
	Key(payload []byte) uint64
	// Lookup returns the bucket that holds versions with the given key, or
	// nil when no such bucket exists. A hash bucket also holds colliding
	// keys (callers filter with MatchKey); an ordered index's bucket holds
	// exactly one key, and Lookup returns nil for keys never inserted.
	Lookup(key uint64) *Bucket
	// Link inserts v at the head of its bucket chain. The version's primary
	// key must already be cached (Table.Insert does).
	Link(v *Version)
	// Unlink removes v from its bucket chain (garbage collection).
	Unlink(v *Version)
	// ScanRange returns a cursor over the buckets with keys in [lo, hi], in
	// ascending key order. A hash index returns ErrUnordered — every
	// unordered range attempt surfaces the error instead of silently
	// yielding an exhausted cursor.
	ScanRange(lo, hi uint64) (RangeCursor, error)
	// RangeLocks returns the index's range-lock table (phantom protection
	// for pessimistic serializable scans), or nil for hash indexes, whose
	// bucket locks cover absent keys physically.
	RangeLocks() *RangeLockTable
}

// RangeCursor iterates the buckets of an ordered index in ascending key
// order. Concurrent inserts of new keys may or may not be observed, exactly
// like new versions appearing in a hash bucket mid-scan — transactional
// consistency comes from the layers above (visibility, validation, locks),
// not the cursor. A cursor parked on a node the reclaimer has since swept
// keeps walking through the node's retained tower pointers; the node is
// never reused, and the cursor's pointer keeps it alive (docs/indexes.md,
// "Node reclamation").
type RangeCursor struct {
	node *SkipNode[Bucket]
	hi   uint64
}

// Next returns the next bucket and its key; ok is false when the cursor is
// exhausted.
func (c *RangeCursor) Next() (b *Bucket, key uint64, ok bool) {
	n := c.node
	if n == nil || n.Key() > c.hi {
		return nil, 0, false
	}
	c.node = n.Next()
	return &n.V, n.Key(), true
}

// Table is a collection of versions reachable through one or more indexes.
// A table has no heap: records are always accessed via an index
// (Section 2.1).
type Table struct {
	Name    string
	indexes []Index
}

// PayloadArena serves no size: Get returns nil and Put does nothing, since a
// version keeps a payload above InlinePayload by reference. The type and
// Table.Arena exist only for the benchmark module (benchmark/probes.go);
// ROADMAP item 1(f) drops them there, then here.
type PayloadArena struct{}

// Get returns nil: the arena serves no size.
func (*PayloadArena) Get(n int) []byte { return nil }

// Put does nothing.
func (*PayloadArena) Put(b []byte) {}

// Arena returns an empty PayloadArena. It exists only for the benchmark
// module; see PayloadArena.
func (t *Table) Arena() *PayloadArena { return &PayloadArena{} }

// NewTable builds a table from its spec.
func NewTable(spec TableSpec) (*Table, error) {
	if len(spec.Indexes) == 0 {
		return nil, fmt.Errorf("storage: table %q needs at least one index", spec.Name)
	}
	t := &Table{Name: spec.Name}
	for ord, is := range spec.Indexes {
		if is.Key == nil {
			return nil, fmt.Errorf("storage: table %q index %q has no key function", spec.Name, is.Name)
		}
		if is.Ordered {
			t.indexes = append(t.indexes, newOrderedIndex(ord, is))
		} else {
			t.indexes = append(t.indexes, newHashIndex(ord, is))
		}
	}
	return t, nil
}

// NumIndexes returns the number of indexes on the table.
func (t *Table) NumIndexes() int { return len(t.indexes) }

// Index returns the index with ordinal ord.
func (t *Table) Index(ord int) Index { return t.indexes[ord] }

// IndexByName returns the index with the given name.
func (t *Table) IndexByName(name string) (Index, bool) {
	for _, ix := range t.indexes {
		if ix.Name() == name {
			return ix, true
		}
	}
	return nil, false
}

// Insert links v into every index of the table, caching the primary key in
// the version. The version must have been allocated for this table's index
// count.
func (t *Table) Insert(v *Version) {
	v.key0 = t.indexes[0].Key(v.Payload())
	for _, ix := range t.indexes {
		ix.Link(v)
	}
}

// Unlink removes v from every index. It returns false if the version was
// already unlinked (the garbage collector calls this at most once per
// version, but defensive callers may race).
func (t *Table) Unlink(v *Version) bool {
	if !v.MarkUnlinked() {
		return false
	}
	for _, ix := range t.indexes {
		ix.Unlink(v)
	}
	return true
}

// HashIndex is a hash index over a table. Bucket chains are singly linked
// through the versions' per-index next pointers; readers follow them with
// atomic loads only.
type HashIndex struct {
	ord     int
	spec    IndexSpec
	slots   BucketMap
	buckets []Bucket
}

func newHashIndex(ord int, spec IndexSpec) *HashIndex {
	m := NewBucketMap(spec.Buckets)
	return &HashIndex{ord: ord, spec: spec, slots: m, buckets: make([]Bucket, m.Len())}
}

// BucketMap places keys in a hash table of n = 2^b buckets by block
// rotation: slot(key) = (key + mix(key >> b)) mod n. Inside each aligned
// block of n consecutive keys the mapping is a rotation, so two keys of one
// block never share a bucket and consecutive keys land in consecutive
// buckets; block 0's rotation is mix(0) = 0, so a dense key range [0, n)
// maps to the identity. Each block's rotation is a splitmix64 of the block
// number, so two keys of different blocks share a bucket with probability
// 1/n, as under a plain hash: for any key set the expected number of
// collisions is at most a plain hash's (docs/indexes.md). Both engines'
// hash indexes use it.
type BucketMap struct {
	mask  uint64
	shift uint
}

// NewBucketMap returns the mapping for a table of buckets slots rounded up
// to a power of two; a size below 2 gives a single bucket.
func NewBucketMap(buckets int) BucketMap {
	var b uint
	if buckets > 1 {
		b = uint(bits.Len64(uint64(buckets - 1)))
	}
	return BucketMap{mask: 1<<b - 1, shift: b}
}

// Len returns the number of buckets.
func (m BucketMap) Len() int { return int(m.mask + 1) }

// Slot returns key's bucket number, in [0, Len()).
func (m BucketMap) Slot(key uint64) uint64 { return (key + mix(key>>m.shift)) & m.mask }

// mix is the splitmix64 finalizer. It picks a block's rotation, so keys of
// different blocks meet in a bucket only by chance, never by a shared
// stride; mix(0) = 0 leaves block 0 unrotated.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return k
}

// Ord returns the index ordinal within its table.
func (ix *HashIndex) Ord() int { return ix.ord }

// Name returns the index name.
func (ix *HashIndex) Name() string { return ix.spec.Name }

// Ordered reports range-scan support; hash indexes have none.
func (ix *HashIndex) Ordered() bool { return false }

// NumBuckets returns the hash table size.
func (ix *HashIndex) NumBuckets() int { return len(ix.buckets) }

// Key extracts this index's key from a payload.
func (ix *HashIndex) Key(payload []byte) uint64 { return ix.spec.Key(payload) }

// Bucket returns the bucket for key.
func (ix *HashIndex) Bucket(key uint64) *Bucket {
	return &ix.buckets[ix.slots.Slot(key)]
}

// Lookup returns the bucket covering key; for a hash index every key maps to
// a bucket, present or not.
func (ix *HashIndex) Lookup(key uint64) *Bucket { return ix.Bucket(key) }

// BucketAt returns bucket i; scans over whole tables walk all buckets of one
// index (Section 2.1: "to scan a table, one simply scans all buckets of any
// index on the table").
func (ix *HashIndex) BucketAt(i int) *Bucket { return &ix.buckets[i] }

// ScanRange on a hash index fails with ErrUnordered: hash buckets have no
// key order to iterate, and silently returning an exhausted cursor would
// let a miswired caller read "empty range" where the real answer is "this
// index cannot answer range queries".
func (ix *HashIndex) ScanRange(lo, hi uint64) (RangeCursor, error) {
	return RangeCursor{}, ErrUnordered
}

// RangeLocks returns nil: hash bucket locks cover absent keys physically, so
// no predicate-shaped lock table is needed.
func (ix *HashIndex) RangeLocks() *RangeLockTable { return nil }

// Link inserts v at the head of its bucket chain.
func (ix *HashIndex) Link(v *Version) {
	b := ix.Bucket(KeyOf(ix, v))
	b.latch()
	v.setNext(ix.ord, b.head.Load())
	b.head.Store(v)
	b.unlatch()
}

// Unlink removes v from its bucket chain.
func (ix *HashIndex) Unlink(v *Version) {
	ix.Bucket(KeyOf(ix, v)).unlink(v, ix.ord)
}

// unlink removes v from b's chain; shared by both index kinds. It reports
// whether the chain is empty after the operation — the ordered index uses
// this to trigger node reclamation (a hash bucket is a fixed slot and
// ignores it).
func (b *Bucket) unlink(v *Version, ord int) (empty bool) {
	b.latch()
	defer b.unlatch()
	cur := b.head.Load()
	if cur == v {
		b.head.Store(v.Next(ord))
		return b.head.Load() == nil
	}
	for cur != nil {
		next := cur.Next(ord)
		if next == v {
			cur.setNext(ord, v.Next(ord))
			break
		}
		cur = next
	}
	return b.head.Load() == nil
}

// Bucket is one chain of versions: a hash bucket (all keys hashing there) or
// an ordered-index node's chain (exactly one key). It is 16 bytes, the
// chain head and one 32-bit word. Readers call Head and Version.Next with
// no locking. Bit 0 of the word is the latch that serializes inserts and
// unlinks; bits 1..31 hold the bucket-lock count of Section 4.1.2, kept in
// the bucket so scans and inserters can check for locks with one load.
type Bucket struct {
	head atomic.Pointer[Version]
	word atomic.Uint32
}

const (
	bucketLatch    = 1 // word bit 0: a Link or Unlink is changing the chain
	bucketLockUnit = 2 // one bucket lock in word bits 1..31
)

// latch takes b's insert/unlink latch, yielding while another holder has
// it; holds are a few pointer writes or one chain walk.
func (b *Bucket) latch() {
	for b.word.Or(bucketLatch)&bucketLatch != 0 {
		runtime.Gosched()
	}
}

// unlatch releases b's latch, leaving the lock count as it is.
func (b *Bucket) unlatch() { b.word.And(^uint32(bucketLatch)) }

// Head returns the first version in the bucket chain.
func (b *Bucket) Head() *Version { return b.head.Load() }

// LockCount returns the number of bucket locks currently held.
func (b *Bucket) LockCount() int { return int(b.word.Load() >> 1) }

// IncLocks increments the bucket lock counter.
func (b *Bucket) IncLocks() { b.word.Add(bucketLockUnit) }

// DecLocks decrements the bucket lock counter.
func (b *Bucket) DecLocks() { b.word.Add(^uint32(bucketLockUnit - 1)) }
