// Package mv implements the paper's multiversion storage engine with both
// concurrency control schemes: optimistic (MV/O, Section 3) and pessimistic
// (MV/L, Section 4). The two schemes are mutually compatible — optimistic
// and pessimistic transactions can run concurrently against the same engine
// (Section 4.5) — and all four isolation levels of Section 2 are supported.
package mv

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deadlock"
	"repro/internal/gc"
	"repro/internal/iso"
	"repro/internal/storage"
	"repro/internal/ts"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Scheme selects the concurrency control method for a transaction.
type Scheme int

const (
	// Optimistic transactions validate their reads and scans at commit
	// (MV/O).
	Optimistic Scheme = iota
	// Pessimistic transactions take record and bucket locks (MV/L).
	Pessimistic
)

func (s Scheme) String() string {
	if s == Pessimistic {
		return "MV/L"
	}
	return "MV/O"
}

// Isolation is a transaction isolation level (Section 2), shared with the
// single-version engine through package iso.
type Isolation = iso.Level

const (
	// ReadCommitted reads the latest committed version (logical read time =
	// current time). No validation or read locks.
	ReadCommitted = iso.ReadCommitted
	// SnapshotIsolation reads as of the transaction's begin time. No
	// validation or locks.
	SnapshotIsolation = iso.SnapshotIsolation
	// RepeatableRead guarantees read stability but not phantom avoidance.
	RepeatableRead = iso.RepeatableRead
	// Serializable guarantees read stability and phantom avoidance.
	Serializable = iso.Serializable
)

// Config controls engine construction.
type Config struct {
	// Log, when non-nil, receives a redo record for every committing
	// transaction with writes.
	Log *wal.Log
	// DeadlockInterval is the wait-for deadlock detection period. Zero means
	// the default (2ms); negative disables the background detector (the
	// cooperative RunOnce path remains available).
	DeadlockInterval time.Duration
	// GCEvery runs a cooperative garbage collection round every N finished
	// transactions (default 64). Negative disables cooperative GC.
	GCEvery int
	// GCQuota caps versions examined per cooperative round (default 256).
	GCQuota int
}

// Stats aggregates engine-wide counters.
type Stats struct {
	Commits         uint64
	Aborts          uint64
	WriteConflicts  uint64
	ValidationFails uint64
	LockFailures    uint64
	DeadlockVictims uint64
	// CascadingAborts counts aborts forced on a transaction from outside:
	// failed commit dependencies and deadlock victimhood.
	CascadingAborts  uint64
	SpeculativeReads uint64
	VersionsRetired  uint64
	VersionsReclaims uint64
	// TxRecycled counts Begins served from the transaction-object pool.
	TxRecycled uint64
	// VersionsRecycled counts version allocations served from the version
	// pool (recycled by the garbage collector after quiescence).
	VersionsRecycled uint64
	// ReadOnlyBegins counts transactions started on the registration-free
	// read-only fast lane (BeginReadOnly with a pin slot available).
	ReadOnlyBegins uint64
	// PinOverflows counts reader-pin acquisitions that found every slot
	// occupied: read-only begins and checkpoint captures, each then covered
	// by a registered transaction, and deadlock-detector passes, each then
	// walking the transaction table unpinned.
	PinOverflows uint64
	// FastCommits counts commits that skipped the end-timestamp draw: the
	// transaction wrote nothing, held no locks, and needed no validation.
	FastCommits uint64
	// IndexNodesSwept counts ordered-index skip-list nodes unlinked from
	// their towers after their last version was garbage collected.
	IndexNodesSwept uint64
}

// Engine is a multiversion main-memory storage engine.
type Engine struct {
	cfg    Config
	oracle ts.Oracle
	txns   *txn.Table
	gc     *gc.Collector
	blt    *storage.BucketLockTable
	det    *deadlock.Detector

	// pins publishes the read times of readers the transaction table cannot
	// see — read-only fast-lane transactions, checkpoint captures and the
	// deadlock detector's iteration epoch — so the GC watermark never passes
	// them. See gc.ReaderPins for the protocol.
	pins gc.ReaderPins

	tablesMu sync.RWMutex
	tables   map[string]*storage.Table

	sinceGC atomic.Int64

	// vpool recycles version objects. Versions enter it only through the
	// garbage collector's quiescence-gated free list (see gc.SetRecycler).
	vpool storage.VersionPool

	// txPool recycles Tx (and embedded txn.Txn) objects. A finished
	// registered transaction waits in txLimbo, stamped with the clock after
	// it left the transaction table, and moves to the pool only once the GC
	// watermark passes the stamp, so no concurrent visibility check can
	// still hold the txn.Txn pointer when it is Reset.
	txPool     sync.Pool
	txLimbo    storage.Limbo[*Tx]
	txRecycled atomic.Uint64

	roBegins    atomic.Uint64
	fastCommits atomic.Uint64
	nodesSwept  atomic.Uint64

	commits          atomic.Uint64
	aborts           atomic.Uint64
	writeConflicts   atomic.Uint64
	validationFails  atomic.Uint64
	lockFailures     atomic.Uint64
	cascadingAborts  atomic.Uint64
	speculativeReads atomic.Uint64
}

// graveyardCap bounds txLimbo, the finished transactions waiting for reuse.
// On overflow (cooperative GC disabled, or the watermark lagging far behind
// under heavy oversubscription) the incoming object is simply not parked —
// the runtime garbage collector frees it instead. Dropping is O(1) and
// always safe; it only costs pool efficiency. The cap is sized for
// throughput × worst-case watermark lag (a scheduling quantum on an
// oversubscribed box).
const graveyardCap = 32768

// NewEngine constructs an engine. Call Close when done to stop background
// workers.
func NewEngine(cfg Config) *Engine {
	if cfg.GCEvery == 0 {
		cfg.GCEvery = 64
	}
	if cfg.GCQuota == 0 {
		cfg.GCQuota = 256
	}
	e := &Engine{
		cfg:    cfg,
		txns:   txn.NewTable(),
		blt:    storage.NewBucketLockTable(),
		tables: make(map[string]*storage.Table),
	}
	e.pins.Init(0) // the pin table self-sizes from runtime.NumCPU
	e.txLimbo.Cap = graveyardCap
	e.gc = gc.NewCollector(func() uint64 {
		// Load the clock FIRST, then sweep the table minima and the reader
		// pins: gc.ReaderPins relies on this order to guarantee the
		// watermark never passes an unregistered reader's snapshot.
		cur := e.oracle.Current()
		return e.pins.Min(e.txns.OldestBegin(cur))
	})
	e.gc.SetRecycler(e.oracle.Current, e.vpool.Put)
	interval := cfg.DeadlockInterval
	if interval == 0 {
		interval = 2 * time.Millisecond
	}
	e.det = deadlock.NewDetector(&detectorSource{e: e}, interval)
	if interval > 0 {
		e.det.Start()
	}
	return e
}

// Close stops background workers and closes the log if one was attached.
func (e *Engine) Close() error {
	e.det.Stop()
	if e.cfg.Log != nil {
		return e.cfg.Log.Close()
	}
	return nil
}

// CreateTable registers a new table.
func (e *Engine) CreateTable(spec storage.TableSpec) (*storage.Table, error) {
	t, err := storage.NewTable(spec)
	if err != nil {
		return nil, err
	}
	e.tablesMu.Lock()
	defer e.tablesMu.Unlock()
	e.tables[spec.Name] = t
	return t, nil
}

// Table returns a table by name.
func (e *Engine) Table(name string) (*storage.Table, bool) {
	e.tablesMu.RLock()
	defer e.tablesMu.RUnlock()
	t, ok := e.tables[name]
	return t, ok
}

// LoadRow inserts a committed row directly, bypassing transaction machinery.
// It is used for initial bulk loading (single-threaded).
func (e *Engine) LoadRow(t *storage.Table, payload []byte) {
	tstamp := e.oracle.Next()
	v := e.vpool.Get(payload, t.NumIndexes(), tstamp, infinityWord)
	t.Insert(v)
}

// Oracle exposes the timestamp oracle (tests and diagnostics).
func (e *Engine) Oracle() *ts.Oracle { return &e.oracle }

// TxnTable exposes the transaction table (tests and diagnostics).
func (e *Engine) TxnTable() *txn.Table { return e.txns }

// Collector exposes the garbage collector.
func (e *Engine) Collector() *gc.Collector { return e.gc }

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	retired, reclaimed := e.gc.Stats()
	s := Stats{
		Commits:          e.commits.Load(),
		Aborts:           e.aborts.Load(),
		WriteConflicts:   e.writeConflicts.Load(),
		ValidationFails:  e.validationFails.Load(),
		LockFailures:     e.lockFailures.Load(),
		CascadingAborts:  e.cascadingAborts.Load(),
		SpeculativeReads: e.speculativeReads.Load(),
		VersionsRetired:  retired,
		VersionsReclaims: reclaimed,
		TxRecycled:       e.txRecycled.Load(),
		VersionsRecycled: e.vpool.Reuses(),
		ReadOnlyBegins:   e.roBegins.Load(),
		PinOverflows:     e.pins.Overflows(),
		FastCommits:      e.fastCommits.Load(),
		IndexNodesSwept:  e.nodesSwept.Load(),
	}
	s.DeadlockVictims = e.det.Victims()
	return s
}

// Begin starts a transaction under the given scheme and isolation level.
// Transaction objects are pooled: the returned Tx must not be used after
// Commit or Abort returns (both report ErrTxDone on accidental reuse before
// the object is recycled, but a recycled object belongs to a new
// transaction).
//
//mvlint:noalloc
func (e *Engine) Begin(scheme Scheme, iso Isolation) *Tx {
	id := e.oracle.Next()
	tx := e.getTx(id, id, scheme, iso)
	e.txns.Register(tx.T)
	return tx
}

// getTx prepares a transaction object (pooled when possible) with the given
// identity; the caller decides whether it is registered.
func (e *Engine) getTx(id, begin uint64, scheme Scheme, iso Isolation) *Tx {
	var tx *Tx
	if pooled, ok := e.txPool.Get().(*Tx); ok {
		tx = pooled
		tx.T.Reset(id, begin)
		e.txRecycled.Add(1)
	} else {
		tx = &Tx{T: txn.New(id, begin)}
	}
	tx.e = e
	tx.scheme = scheme
	tx.iso = iso
	tx.done = false
	tx.updatedReadLocked = false
	tx.readOnly = false
	tx.pin = -1
	return tx
}

// BeginReadOnly starts a registration-free read-only snapshot transaction:
// it reads the oracle without incrementing it and never enters the
// transaction table, so the only shared state it touches is one reader-pin
// slot. Combined with the end-timestamp elision in Commit, a read-only
// transaction performs zero shared-counter increments.
//
// The returned Tx reads a consistent snapshot (snapshot isolation, which for
// a read-only transaction equals serializability) and rejects every mutation
// with ErrReadOnlyTx. When all pin slots are occupied the engine falls back
// to a registered snapshot transaction with identical semantics (the
// fallback draws one timestamp).
//
//mvlint:noalloc
func (e *Engine) BeginReadOnly() *Tx {
	slot, cover := e.pin()
	if cover != nil {
		cover.readOnly = true
		return cover
	}
	rt := e.oracle.Current() // >= the pin; the pin covers everything we can read
	tx := e.getTx(txn.Anonymous, rt, Optimistic, SnapshotIsolation)
	tx.readOnly = true
	tx.pin = slot
	e.roBegins.Add(1)
	return tx
}

// pin publishes a provisional reader pin at the current clock, BEFORE the
// caller chooses a read time or loads any index pointer (see gc.ReaderPins
// for why this ordering makes the watermark safe), and returns its slot.
// When every slot is taken (the pin table counts the overflow) it returns
// instead a registered snapshot transaction, cover, whose begin timestamp
// bounds the watermark the same way.
//
//mvlint:noalloc
func (e *Engine) pin() (slot int, cover *Tx) {
	if slot = e.pins.Acquire(e.oracle.Current()); slot >= 0 {
		return slot, nil
	}
	return -1, e.Begin(Optimistic, SnapshotIsolation)
}

// unpin releases what pin returned. A cover leaves the transaction table
// and is recycled without counting as a commit or running a GC round.
func (e *Engine) unpin(slot int, cover *Tx) {
	if cover == nil {
		e.pins.Release(slot)
		return
	}
	e.txns.Remove(cover.T.ID())
	e.recycleTx(cover)
}

// finishTx runs after a transaction has fully committed or aborted and left
// the transaction table: it recycles the object and triggers cooperative
// garbage collection.
func (e *Engine) finishTx(tx *Tx) {
	e.recycleTx(tx)
	if e.cfg.GCEvery > 0 && e.sinceGC.Add(1)%int64(e.cfg.GCEvery) == 0 {
		e.collect(e.cfg.GCQuota)
	}
}

// recycleTx drops a finished transaction's references and parks the object
// for reuse.
func (e *Engine) recycleTx(tx *Tx) {
	clear(tx.readSet)
	tx.readSet = tx.readSet[:0]
	clear(tx.scanSet)
	tx.scanSet = tx.scanSet[:0]
	clear(tx.writeSet)
	tx.writeSet = tx.writeSet[:0]
	clear(tx.bucketLocks)
	tx.bucketLocks = tx.bucketLocks[:0]
	clear(tx.rangeLocks)
	tx.rangeLocks = tx.rangeLocks[:0]
	clear(tx.walRec.Ops)
	tx.walRec.Ops = tx.walRec.Ops[:0]
	tx.holders = tx.holders[:0]

	if tx.pin >= 0 {
		e.pins.Release(tx.pin)
		tx.pin = -1
	}
	if tx.T.ID() == txn.Anonymous {
		// A fast-lane reader never entered the table and never published its
		// ID (it cannot write, lock, or take dependencies), so no stale
		// pointer to it can exist: it is reusable immediately, no quiescence
		// wait needed.
		e.txPool.Put(tx)
	} else {
		e.txLimbo.Defer(tx, e.oracle.Current())
	}
}

// collect runs one garbage collection round, sweeps dead ordered-index
// nodes, and then recycles the transaction objects the watermark has
// quiesced. The round needs no reader pin: the skip-list nodes it traverses
// outside any transaction are never reused, and the version chains it walks
// are walked under their bucket latch.
func (e *Engine) collect(limit int) int {
	n := e.gc.Collect(limit)
	e.sweepIndexNodes(limit)
	wm := e.gc.Watermark()
	e.txLimbo.Drain(func(stamp uint64) bool { return stamp < wm }, 0, e.putTx)
	return n
}

// putTx returns a quiesced transaction object to the pool.
func (e *Engine) putTx(tx *Tx) { e.txPool.Put(tx) }

// forEachOrderedIndex invokes fn on every ordered index of every table.
func (e *Engine) forEachOrderedIndex(fn func(ix *storage.OrderedIndex)) {
	e.tablesMu.RLock()
	defer e.tablesMu.RUnlock()
	for _, t := range e.tables {
		for ord := 0; ord < t.NumIndexes(); ord++ {
			if oix, ok := t.Index(ord).(*storage.OrderedIndex); ok {
				fn(oix)
			}
		}
	}
}

// sweepIndexNodes unlinks marked skip-list nodes and leaves them to the Go
// collector: a transaction still holding one keeps it alive.
func (e *Engine) sweepIndexNodes(limit int) {
	e.forEachOrderedIndex(func(ix *storage.OrderedIndex) {
		if n := ix.SweepNodes(limit); n > 0 {
			e.nodesSwept.Add(uint64(n))
		}
	})
}

// CollectGarbage runs a bounded garbage collection round and returns the
// number of versions reclaimed.
func (e *Engine) CollectGarbage(limit int) int { return e.collect(limit) }

// DetectDeadlocks runs one synchronous deadlock detection pass; it returns
// the number of victims aborted. Useful when the background detector is
// disabled.
func (e *Engine) DetectDeadlocks() int { return e.det.RunOnce() }
