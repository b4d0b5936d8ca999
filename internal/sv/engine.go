package sv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/storage"
	"repro/internal/ts"
	"repro/internal/wal"
)

// Config controls the single-version engine.
type Config struct {
	// Log, when non-nil, receives a redo record per committed writer.
	Log *wal.Log
	// LockTimeout bounds lock waits; expiry aborts the transaction,
	// breaking deadlocks (default 25ms).
	LockTimeout time.Duration
	// ReclaimEvery runs a cooperative ordered-index node reclamation round
	// every N finished transactions (default 64). Negative disables
	// cooperative reclamation (ReclaimNodes remains available).
	ReclaimEvery int
	// ReclaimQuota caps nodes swept per cooperative round (default 256).
	ReclaimQuota int
}

// Stats aggregates engine-wide counters.
type Stats struct {
	Commits      uint64
	Aborts       uint64
	LockTimeouts uint64
	// ReadOnlyBegins counts transactions started on the read-only fast lane
	// (BeginReadOnly): no transaction-ID draw, no end-sequence draw.
	ReadOnlyBegins uint64
	// FastCommits counts commits that skipped the end-sequence draw because
	// the transaction wrote nothing.
	FastCommits uint64
	// IndexNodesSwept counts ordered-index skip-list nodes unlinked after
	// their record chain drained.
	IndexNodesSwept uint64
}

// Engine is the single-version locking storage engine ("1V").
type Engine struct {
	cfg   Config
	txSeq atomic.Uint64
	// endSeq orders committed writers: each draws once, while all its 2PL
	// locks are held (see Tx.CommitTS).
	endSeq ts.Oracle

	tablesMu sync.RWMutex
	tables   map[string]*Table

	sinceReclaim atomic.Int64

	// txPool recycles Tx objects and their bookkeeping slices. A finished
	// transaction goes back immediately: lock words and range-lock entries
	// name their owners by ID, so nothing in the engine points at a Tx.
	txPool sync.Pool

	commits     atomic.Uint64
	aborts      atomic.Uint64
	timeouts    atomic.Uint64
	roBegins    atomic.Uint64
	fastCommits atomic.Uint64
	nodesSwept  atomic.Uint64
}

// NewEngine constructs a single-version engine.
func NewEngine(cfg Config) *Engine {
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = 25 * time.Millisecond
	}
	if cfg.ReclaimEvery == 0 {
		cfg.ReclaimEvery = 64
	}
	if cfg.ReclaimQuota <= 0 {
		cfg.ReclaimQuota = 256
	}
	e := &Engine{cfg: cfg, tables: make(map[string]*Table)}
	e.txPool.New = func() any { return &Tx{e: e} }
	return e
}

// Close closes the attached log, if any.
func (e *Engine) Close() error {
	if e.cfg.Log != nil {
		return e.cfg.Log.Close()
	}
	return nil
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Commits:         e.commits.Load(),
		Aborts:          e.aborts.Load(),
		LockTimeouts:    e.timeouts.Load(),
		ReadOnlyBegins:  e.roBegins.Load(),
		FastCommits:     e.fastCommits.Load(),
		IndexNodesSwept: e.nodesSwept.Load(),
	}
}

// Counters returns the engine's shared sequence counters (transaction IDs
// drawn, end timestamps drawn). The read-only fast lane's contract is that a
// read transaction advances neither.
func (e *Engine) Counters() (txSeq, endSeq uint64) {
	return e.txSeq.Load(), e.endSeq.Current()
}

// Table is a single-version table: records linked into one chain per index
// key (hash bucket or skip-list node), with the lock machinery embedded in
// the index.
type Table struct {
	Name    string
	indexes []svIndex
	// hashIxs[i] is indexes[i] when it is a hash index, nil otherwise: a
	// concrete-typed fast path that spares the point-access hot loop the
	// interface dispatch (the 1V engine's per-op costs are small enough
	// that an itab check per scan shows up in the profile).
	hashIxs []*hashIndex
}

// svIndex is the single-version analogue of storage.Index: an access method
// over in-place-updated records. The hash implementation embeds a
// reader/writer keyLock per bucket; the ordered implementation locks
// predicate-shaped key ranges in a per-index storage.RangeLockTable instead
// (there is no bucket to lock for a key that was never inserted).
type svIndex interface {
	ordinal() int
	ordered() bool
	keyOf(payload []byte) uint64
	// chain returns the head of the record chain that holds key's records;
	// the caller holds a cover of key.
	chain(key uint64) *Record
	// link adds r to the chain for its cached key; the caller holds the
	// covering exclusive lock.
	link(r *Record)
	// unlink removes r from the chain under key; the caller holds the
	// covering exclusive lock.
	unlink(r *Record, key uint64)
}

// hashIndex is the paper's embedded-lock-table hash index: each hash key
// maps to one reader/writer lock covering all records with that hash key,
// which automatically protects against phantoms.
type hashIndex struct {
	ord     int
	spec    storage.IndexSpec
	slots   storage.BucketMap
	buckets []bucket
	waits   [waitStripes]waitStripe
}

// bucket is one hash slot, 16 bytes: its lock word and its chain head.
type bucket struct {
	lock keyLock
	head *Record
}

// orderedIndex is a range-scannable access method: a skip list with one
// record chain per distinct key. Lock coverage is provided by a per-index
// storage.RangeLockTable (S ranges for scans, X points for writes) rather than
// per-bucket locks, because phantom protection for ranges must cover keys
// that do not physically exist yet.
//
// Node lifecycle: unlink marks a node whose chain drained (the caller holds
// the X point cover, which serializes against link for the same key); the
// engine's cooperative reclaim round sweeps marked nodes out of the list
// and leaves them to the Go collector. Nodes are never reused, so a
// traversal needs no protection beyond the range lock that covers the
// chains it reads.
type orderedIndex struct {
	ord  int
	spec storage.IndexSpec
	list storage.SkipList[recordChain]
	rl   storage.RangeLockTable
}

// recordChain is an ordered-index node value: the head of the key's record
// chain. It is read and written only under a covering range lock.
type recordChain struct {
	head *Record
}

// Record is a single-version record, one allocation for tables of up to two
// indexes: the chain slots of ordinals 0 and 1 sit inline, and only ordinals
// 2 and up spill into a separate array behind more (the shape of
// storage.Version). Payload and chain slots are read under the covering
// locks (bucket keyLocks for hash indexes, range locks for ordered ones) and
// written under exclusive covers.
//
// A Record is 56 bytes, so it lands in the 64 B size class, whose objects
// start 64-byte aligned: one record is one cache line. The payload is kept
// by reference as an address and a 32-bit length (the WAL frames payload
// lengths as 32 bits too), and the spill slots as one pointer, so neither
// costs a 24-byte slice header.
type Record struct {
	payload *byte
	plen    uint32
	deleted bool
	inline  [2]link
	// more is the first of the spill slots of ordinals 2 and up, one array
	// of len(t.indexes)-2 links; nil on tables of up to two indexes.
	more *link
}

// link is a record's slot in one index: the cached index key, kept in sync
// with the payload, and the successor in that key's chain.
type link struct {
	key  uint64
	next *Record
}

// newRecord allocates a record for t with its index keys cached.
func newRecord(t *Table, payload []byte) *Record {
	r := &Record{}
	r.setPayload(payload)
	if n := len(t.indexes); n > len(r.inline) {
		r.more = &make([]link, n-len(r.inline))[0]
	}
	for ord, ix := range t.indexes {
		r.link(ord).key = ix.keyOf(payload)
	}
	return r
}

// link returns r's chain slot in index ord. An ordinal of 2 and up is one of
// r's table's indexes, so the spill array has at least ord-1 slots.
func (r *Record) link(ord int) *link {
	if ord < len(r.inline) {
		return &r.inline[ord]
	}
	return &unsafe.Slice(r.more, ord-1)[ord-len(r.inline)]
}

// Payload returns the record's current payload. The caller must be holding
// the covering lock (i.e. be inside a scan callback or own the record's
// exclusive lock); the slice must not be modified. Its capacity equals its
// length, so an append copies instead of writing past the payload.
func (r *Record) Payload() []byte { return unsafe.Slice(r.payload, r.plen) }

// setPayload points r at payload, which r keeps by reference. The caller
// holds r's exclusive covers, or r is not yet linked. Its callers refuse a
// payload above storage.MaxPayload first.
func (r *Record) setPayload(payload []byte) {
	r.payload, r.plen = unsafe.SliceData(payload), uint32(len(payload))
}

func (ix *hashIndex) ordinal() int          { return ix.ord }
func (ix *hashIndex) ordered() bool         { return false }
func (ix *hashIndex) keyOf(p []byte) uint64 { return ix.spec.Key(p) }

func (ix *hashIndex) chain(key uint64) *Record {
	b, _ := ix.bucket(key)
	return b.head
}

// bucket returns key's bucket and the wait stripe of its lock.
func (ix *hashIndex) bucket(key uint64) (*bucket, *waitStripe) {
	return ix.bucketAt(ix.slots.Slot(key))
}

// bucketAt returns bucket i and the wait stripe of its lock.
func (ix *hashIndex) bucketAt(i uint64) (*bucket, *waitStripe) {
	return &ix.buckets[i], &ix.waits[i%waitStripes]
}

func (ix *hashIndex) link(r *Record) {
	l := r.link(ix.ord)
	b, _ := ix.bucket(l.key)
	l.next = b.head
	b.head = r
}

func (ix *hashIndex) unlink(r *Record, key uint64) {
	b, _ := ix.bucket(key)
	unlinkChain(&b.head, r, ix.ord)
}

// unlinkChain removes r from the index-ord chain starting at *head.
func unlinkChain(head **Record, r *Record, ord int) {
	next := r.link(ord).next
	if *head == r {
		*head = next
		return
	}
	for cur := *head; cur != nil; {
		l := cur.link(ord)
		if l.next == r {
			l.next = next
			return
		}
		cur = l.next
	}
}

func (ix *orderedIndex) ordinal() int          { return ix.ord }
func (ix *orderedIndex) ordered() bool         { return true }
func (ix *orderedIndex) keyOf(p []byte) uint64 { return ix.spec.Key(p) }

func (ix *orderedIndex) chain(key uint64) *Record {
	if n := ix.list.Get(key); n != nil {
		return n.V.head
	}
	return nil
}

// link adds r to its key's chain, reviving a marked node or — if the
// sweeper already unlinked it — retrying with a fresh node. The caller
// holds the X point cover for the key, which serializes chain mutation and
// the emptiness check in unlink; the Revive CAS arbitrates only against the
// asynchronous sweeper.
func (ix *orderedIndex) link(r *Record) {
	l := r.link(ix.ord)
	for {
		n := ix.list.GetOrCreate(l.key)
		if !ix.list.Revive(n) {
			continue // node already swept; a fresh node is needed
		}
		l.next = n.V.head
		n.V.head = r
		return
	}
}

// unlink removes r from its key's chain and marks the node for reclamation
// when the chain drains. The caller holds the X point cover.
func (ix *orderedIndex) unlink(r *Record, key uint64) {
	n := ix.list.Get(key)
	if n == nil {
		return
	}
	unlinkChain(&n.V.head, r, ix.ord)
	if n.V.head == nil {
		ix.list.MarkDeleted(n)
	}
}

// CreateTable registers a new table.
func (e *Engine) CreateTable(spec storage.TableSpec) (*Table, error) {
	if len(spec.Indexes) == 0 {
		return nil, fmt.Errorf("sv: table %q needs at least one index", spec.Name)
	}
	t := &Table{Name: spec.Name}
	for ord, is := range spec.Indexes {
		if is.Key == nil {
			return nil, fmt.Errorf("sv: table %q index %q has no key function", spec.Name, is.Name)
		}
		if is.Ordered {
			t.indexes = append(t.indexes, &orderedIndex{ord: ord, spec: is})
			t.hashIxs = append(t.hashIxs, nil)
			continue
		}
		m := storage.NewBucketMap(is.Buckets)
		hix := &hashIndex{
			ord:     ord,
			spec:    is,
			slots:   m,
			buckets: make([]bucket, m.Len()),
		}
		t.indexes = append(t.indexes, hix)
		t.hashIxs = append(t.hashIxs, hix)
	}
	e.tablesMu.Lock()
	e.tables[spec.Name] = t
	e.tablesMu.Unlock()
	return t, nil
}

// Table returns a table by name.
func (e *Engine) Table(name string) (*Table, bool) {
	e.tablesMu.RLock()
	defer e.tablesMu.RUnlock()
	t, ok := e.tables[name]
	return t, ok
}

// maybeReclaim runs a cooperative node reclamation round every
// cfg.ReclaimEvery finished transactions.
func (e *Engine) maybeReclaim() {
	if e.cfg.ReclaimEvery > 0 && e.sinceReclaim.Add(1)%int64(e.cfg.ReclaimEvery) == 0 {
		e.ReclaimNodes(e.cfg.ReclaimQuota)
	}
}

// ReclaimNodes sweeps up to limit marked ordered-index nodes per index out
// of their skip lists and returns how many it swept. A swept node is left
// to the Go collector. Safe for concurrent use; normally driven
// cooperatively from Commit/Abort.
func (e *Engine) ReclaimNodes(limit int) (swept int) {
	e.tablesMu.RLock()
	defer e.tablesMu.RUnlock()
	for _, t := range e.tables {
		for _, ix := range t.indexes {
			oix, ok := ix.(*orderedIndex)
			if !ok {
				continue
			}
			swept += oix.list.SweepMarked(limit)
		}
	}
	if swept > 0 {
		e.nodesSwept.Add(uint64(swept))
	}
	return swept
}

// LoadRow inserts a record without locking. Single-threaded bulk load only.
// A payload above storage.MaxPayload panics, as on MV.
func (e *Engine) LoadRow(t *Table, payload []byte) {
	if len(payload) > storage.MaxPayload {
		panic(fmt.Sprintf("sv: %d-byte payload above storage.MaxPayload", len(payload)))
	}
	r := newRecord(t, payload)
	for _, ix := range t.indexes {
		ix.link(r)
	}
}
