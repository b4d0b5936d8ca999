package sv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gc"
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
	// ReclaimQuota caps nodes swept/freed per cooperative round (default 256).
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
	// IndexNodesFreed counts swept nodes that passed epoch quiescence and
	// were reset into the node reuse pool.
	IndexNodesFreed uint64
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

	// nodeEpoch is the reader epoch guarding ordered-index node reuse: the
	// 1V engine has no timestamps, so every skip-list traversal (scans,
	// link/unlink) pins it, and a swept node is reset only once every pin
	// published at or before its unlink has exited. See gc.Epoch.
	nodeEpoch    gc.Epoch
	sinceReclaim atomic.Int64

	commits     atomic.Uint64
	aborts      atomic.Uint64
	timeouts    atomic.Uint64
	roBegins    atomic.Uint64
	fastCommits atomic.Uint64
	nodesSwept  atomic.Uint64
	nodesFreed  atomic.Uint64

	// degraded latches after a log append fails for any reason other than a
	// clean shutdown: new writes fail fast with ErrDegraded, reads keep
	// serving. See the mv engine's identical mechanism.
	degraded     atomic.Bool
	degradeMu    sync.Mutex
	degradeCause error
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
	e.nodeEpoch.Init(0)
	return e
}

// degrade latches the engine read-only after a log failure; a clean log
// shutdown (wal.ErrClosed) does not count.
func (e *Engine) degrade(err error) {
	if err == nil || errors.Is(err, wal.ErrClosed) {
		return
	}
	e.degradeMu.Lock()
	if e.degradeCause == nil {
		e.degradeCause = err
	}
	e.degradeMu.Unlock()
	e.degraded.Store(true)
}

// Degraded returns the latched log failure that flipped the engine
// read-only, or nil while healthy.
func (e *Engine) Degraded() error {
	if !e.degraded.Load() {
		return nil
	}
	e.degradeMu.Lock()
	defer e.degradeMu.Unlock()
	return e.degradeCause
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
		IndexNodesFreed: e.nodesFreed.Load(),
	}
}

// Counters returns the engine's shared sequence counters (transaction IDs
// drawn, end timestamps drawn). The read-only fast lane's contract is that a
// read transaction advances neither.
func (e *Engine) Counters() (txSeq, endSeq uint64) {
	return e.txSeq.Load(), e.endSeq.Current()
}

// PinTableOverflows reports how many node-epoch pin acquisitions found every
// reader-pin slot occupied (each such entry took the slow registered path).
func (e *Engine) PinTableOverflows() uint64 { return e.nodeEpoch.Overflows() }

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
// predicate-shaped key ranges in a per-index range-lock manager instead
// (there is no bucket to lock for a key that was never inserted).
type svIndex interface {
	ordinal() int
	ordered() bool
	keyOf(payload []byte) uint64
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
	mask    uint64
	buckets []bucket
}

type bucket struct {
	lock keyLock
	head *Record
}

// orderedIndex is a range-scannable access method: a skip list with one
// record chain per distinct key. Lock coverage is provided by a per-index
// range-lock manager (S ranges for scans, X points for writes) rather than
// per-bucket locks, because phantom protection for ranges must cover keys
// that do not physically exist yet.
//
// Node lifecycle: unlink marks a node whose chain drained (the caller holds
// the X point cover, which serializes against link for the same key); the
// engine's cooperative reclaim round sweeps marked nodes and frees them
// once the reader epoch quiesces. Every traversal of the list — scans and
// link/unlink alike — pins the engine's nodeEpoch (ep), because record
// chains and node keys are plain fields whose reuse must be ordered after
// every reader that could reach the node.
type orderedIndex struct {
	ord  int
	spec storage.IndexSpec
	list storage.SkipList[recordChain]
	rl   svRangeLocks
	ep   *gc.Epoch
}

// recordChain is an ordered-index node value: the head of the key's record
// chain. It is read and written only under a covering range lock.
type recordChain struct {
	head *Record
}

// Record is a single-version record. Payload and chain pointers are read
// under the covering locks (bucket keyLocks for hash indexes, range locks
// for ordered ones) and written under exclusive covers.
type Record struct {
	payload []byte
	keys    []uint64 // cached index keys, kept in sync with payload
	deleted bool
	next    []*Record
}

// Payload returns the record's current payload. The caller must be holding
// the covering lock (i.e. be inside a scan callback or own the record's
// exclusive lock); the slice must not be modified.
func (r *Record) Payload() []byte { return r.payload }

func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return k
}

func (ix *hashIndex) ordinal() int              { return ix.ord }
func (ix *hashIndex) ordered() bool             { return false }
func (ix *hashIndex) keyOf(p []byte) uint64     { return ix.spec.Key(p) }
func (ix *hashIndex) bucket(key uint64) *bucket { return &ix.buckets[mix(key)&ix.mask] }

func (ix *hashIndex) link(r *Record) {
	b := ix.bucket(r.keys[ix.ord])
	r.next[ix.ord] = b.head
	b.head = r
}

func (ix *hashIndex) unlink(r *Record, key uint64) {
	b := ix.bucket(key)
	if b.head == r {
		b.head = r.next[ix.ord]
		return
	}
	for cur := b.head; cur != nil; cur = cur.next[ix.ord] {
		if cur.next[ix.ord] == r {
			cur.next[ix.ord] = r.next[ix.ord]
			return
		}
	}
}

func (ix *orderedIndex) ordinal() int          { return ix.ord }
func (ix *orderedIndex) ordered() bool         { return true }
func (ix *orderedIndex) keyOf(p []byte) uint64 { return ix.spec.Key(p) }

// link adds r to its key's chain, reviving a marked node or — if the
// sweeper already unlinked it — retrying with a fresh node. The caller
// holds the X point cover for the key, which serializes chain mutation and
// the emptiness check in unlink; the Revive CAS arbitrates only against the
// asynchronous sweeper.
func (ix *orderedIndex) link(r *Record) {
	slot := ix.ep.Enter()
	for {
		n := ix.list.GetOrCreate(r.keys[ix.ord])
		if !ix.list.Revive(n) {
			continue // node already swept; a fresh node is needed
		}
		r.next[ix.ord] = n.V.head
		n.V.head = r
		break
	}
	ix.ep.Exit(slot)
}

// unlink removes r from its key's chain and marks the node for reclamation
// when the chain drains. The caller holds the X point cover.
func (ix *orderedIndex) unlink(r *Record, key uint64) {
	slot := ix.ep.Enter()
	defer ix.ep.Exit(slot)
	n := ix.list.Get(key)
	if n == nil {
		return
	}
	if n.V.head == r {
		n.V.head = r.next[ix.ord]
	} else {
		for cur := n.V.head; cur != nil; cur = cur.next[ix.ord] {
			if cur.next[ix.ord] == r {
				cur.next[ix.ord] = r.next[ix.ord]
				break
			}
		}
	}
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
			t.indexes = append(t.indexes, &orderedIndex{ord: ord, spec: is, ep: &e.nodeEpoch})
			t.hashIxs = append(t.hashIxs, nil)
			continue
		}
		n := 1
		for n < is.Buckets {
			n <<= 1
		}
		hix := &hashIndex{
			ord:     ord,
			spec:    is,
			mask:    uint64(n - 1),
			buckets: make([]bucket, n),
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

// ReclaimNodes sweeps marked ordered-index nodes out of their skip lists
// and frees swept nodes the reader epoch has quiesced, up to limit of each
// per index. It returns the counts. Safe for concurrent use; normally driven
// cooperatively from Commit/Abort.
func (e *Engine) ReclaimNodes(limit int) (swept, freed int) {
	e.tablesMu.RLock()
	defer e.tablesMu.RUnlock()
	for _, t := range e.tables {
		for _, ix := range t.indexes {
			oix, ok := ix.(*orderedIndex)
			if !ok {
				continue
			}
			if n := oix.list.SweepMarked(e.nodeEpoch.Stamp, limit); n > 0 {
				swept += n
			}
			n := oix.list.FreeDead(e.nodeEpoch.Quiesced, func(c *recordChain) { c.head = nil }, limit)
			freed += n
		}
	}
	if swept > 0 {
		e.nodesSwept.Add(uint64(swept))
	}
	if freed > 0 {
		e.nodesFreed.Add(uint64(freed))
	}
	return swept, freed
}

// LoadRow inserts a record without locking. Single-threaded bulk load only.
func (e *Engine) LoadRow(t *Table, payload []byte) {
	r := &Record{
		payload: payload,
		keys:    make([]uint64, len(t.indexes)),
		next:    make([]*Record, len(t.indexes)),
	}
	for ord, ix := range t.indexes {
		r.keys[ord] = ix.keyOf(payload)
	}
	for _, ix := range t.indexes {
		ix.link(r)
	}
}
