// Package mv implements the paper's multiversion storage engine with both
// concurrency control schemes: optimistic (MV/O, Section 3) and pessimistic
// (MV/L, Section 4). The two schemes are mutually compatible — optimistic
// and pessimistic transactions can run concurrently against the same engine
// (Section 4.5) — and all four isolation levels of Section 2 are supported.
package mv

import (
	"errors"
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
	// PinOverflows counts fast-lane attempts that found every reader-pin
	// slot occupied and fell back to a registered transaction.
	PinOverflows uint64
	// FastCommits counts commits that skipped the end-timestamp draw: the
	// transaction wrote nothing, held no locks, and needed no validation.
	FastCommits uint64
	// IndexNodesSwept counts ordered-index skip-list nodes unlinked from
	// their towers after their last version was garbage collected.
	IndexNodesSwept uint64
	// IndexNodesFreed counts swept nodes that passed quiescence and were
	// reset into the node reuse pool.
	IndexNodesFreed uint64
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

	// nodeEpoch guards skip-list node reuse against the one class of readers
	// the watermark cannot see: the garbage collector's own index traversals
	// (Collect's unlinks run outside any transaction). Collectors pin it for
	// the duration of a round; node freeing requires the watermark to pass
	// the unlink stamp AND the epoch to be clear. Transactions need no pin —
	// every cursor or bucket pointer they hold is covered by their begin
	// timestamp (registered) or reader pin (fast lane), which bounds the
	// watermark. See docs/indexes.md, "Node reclamation".
	nodeEpoch gc.Epoch

	tablesMu sync.RWMutex
	tables   map[string]*storage.Table

	sinceGC atomic.Int64

	// vpool recycles version objects. Versions enter it only through the
	// garbage collector's quiescence-gated free list (see gc.SetRecycler).
	vpool storage.VersionPool

	// txPool recycles Tx (and embedded txn.Txn) objects. Finished
	// transactions park in the graveyard first and move to the pool only
	// once the GC watermark passes their removal timestamp, so no concurrent
	// visibility check can still hold the txn.Txn pointer when it is Reset.
	txPool sync.Pool
	gravMu sync.Mutex
	// graveyard is a FIFO of parked transactions: entries [gravHead:] are
	// live, drained in stamp order as the watermark advances.
	graveyard  []deadTx
	gravHead   int
	txRecycled atomic.Uint64

	roBegins     atomic.Uint64
	pinOverflows atomic.Uint64
	fastCommits  atomic.Uint64
	nodesSwept   atomic.Uint64
	nodesFreed   atomic.Uint64

	commits          atomic.Uint64
	aborts           atomic.Uint64
	writeConflicts   atomic.Uint64
	validationFails  atomic.Uint64
	lockFailures     atomic.Uint64
	cascadingAborts  atomic.Uint64
	speculativeReads atomic.Uint64

	// degraded latches after a log append fails for any reason other than a
	// clean shutdown: the engine can no longer promise durability, so new
	// writes fail fast with ErrDegraded while reads keep serving.
	degraded     atomic.Bool
	degradeMu    sync.Mutex
	degradeCause error
}

// deadTx is a finished transaction awaiting quiescence before reuse.
type deadTx struct {
	tx *Tx
	// stamp is the timestamp counter at the moment the transaction left the
	// transaction table; once the watermark (oldest active begin) exceeds
	// it, no transaction that could have looked the object up remains.
	stamp uint64
}

// graveyardCap bounds the parked-transaction list. On overflow (cooperative
// GC disabled, or the watermark lagging far behind under heavy
// oversubscription) the incoming object is simply not parked — the runtime
// garbage collector frees it instead. Dropping is O(1) and always safe; it
// only costs pool efficiency. The cap is sized for throughput × worst-case
// watermark lag (a scheduling quantum on an oversubscribed box).
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
	e.nodeEpoch.Init(0)
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

// degrade latches the engine into read-only mode after a log failure. A
// clean log shutdown (wal.ErrClosed) is not a disk fault and does not
// degrade: Close-then-write is a caller bug, not a durability event.
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
// read-only, or nil while the engine is healthy. While degraded, mutations
// fail fast with ErrDegraded; reads and read-only snapshots keep serving.
func (e *Engine) Degraded() error {
	if !e.degraded.Load() {
		return nil
	}
	e.degradeMu.Lock()
	defer e.degradeMu.Unlock()
	return e.degradeCause
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
	v := e.vpool.GetIn(t.Arena(), payload, t.NumIndexes(), tstamp, infinityWord)
	t.Insert(v)
}

// Oracle exposes the timestamp oracle (tests and diagnostics).
func (e *Engine) Oracle() *ts.Oracle { return &e.oracle }

// PinTableOverflows returns how many reader-pin acquisitions found the
// striped pin table full (each fell back to a watermark-visible slow path,
// e.g. registration for read-only begins).
func (e *Engine) PinTableOverflows() uint64 { return e.pins.Overflows() }

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
		PinOverflows:     e.pinOverflows.Load(),
		FastCommits:      e.fastCommits.Load(),
		IndexNodesSwept:  e.nodesSwept.Load(),
		IndexNodesFreed:  e.nodesFreed.Load(),
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
	// Publish a provisional pin BEFORE choosing the snapshot time; see
	// gc.ReaderPins for why this ordering makes the watermark safe.
	pin := e.oracle.Current()
	slot := e.pins.Acquire(pin)
	if slot < 0 {
		e.pinOverflows.Add(1)
		tx := e.Begin(Optimistic, SnapshotIsolation)
		tx.readOnly = true
		return tx
	}
	rt := e.oracle.Current() // >= pin; the pin covers everything we can read
	tx := e.getTx(txn.Anonymous, rt, Optimistic, SnapshotIsolation)
	tx.readOnly = true
	tx.pin = slot
	e.roBegins.Add(1)
	return tx
}

// finishTx runs after a transaction has fully committed or aborted and left
// the transaction table: it drops the transaction's references, parks the
// object for recycling, and triggers cooperative garbage collection.
func (e *Engine) finishTx(tx *Tx) {
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
		stamp := e.oracle.Current()
		e.gravMu.Lock()
		if len(e.graveyard)-e.gravHead < graveyardCap {
			e.graveyard = append(e.graveyard, deadTx{tx, stamp})
		}
		e.gravMu.Unlock()
	}

	if e.cfg.GCEvery > 0 && e.sinceGC.Add(1)%int64(e.cfg.GCEvery) == 0 {
		e.collect(e.cfg.GCQuota)
	}
}

// collect runs one garbage collection round, sweeps dead ordered-index
// nodes, and then recycles parked transaction objects and quiesced nodes.
// The round is epoch-pinned: Collect's index unlinks (and the sweep's
// predecessor searches) traverse skip lists outside any transaction, so the
// watermark cannot vouch for them — the pin keeps concurrent rounds from
// resetting a node this round can still reach.
func (e *Engine) collect(limit int) int {
	slot := e.nodeEpoch.Enter()
	n := e.gc.Collect(limit)
	e.sweepIndexNodes(limit)
	e.nodeEpoch.Exit(slot)
	wm := e.gc.Watermark()
	e.drainGraveyard(wm)
	e.freeIndexNodes(wm, limit)
	return n
}

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

// sweepIndexNodes unlinks marked skip-list nodes, stamping them with the
// clock read after the unlinks: any transaction that can still reach a node
// loaded its pointer before the unlink, so its begin timestamp was drawn
// before the stamp and bounds the watermark below it until the transaction
// finishes.
func (e *Engine) sweepIndexNodes(limit int) {
	e.forEachOrderedIndex(func(ix *storage.OrderedIndex) {
		if n := ix.SweepNodes(e.oracle.Current, limit); n > 0 {
			e.nodesSwept.Add(uint64(n))
		}
	})
}

// freeIndexNodes resets swept nodes into the reuse pool once (a) the
// watermark passed their unlink stamp — no transaction that could hold the
// node remains — and (b) the collector epoch is clear — no concurrent GC
// round is mid-traversal. The epoch check runs per entry inside the
// reclamation lock, ordering it after the unlink stores (see gc.Epoch).
func (e *Engine) freeIndexNodes(wm uint64, limit int) {
	if wm == 0 {
		return // no GC round has published a watermark yet
	}
	e.forEachOrderedIndex(func(ix *storage.OrderedIndex) {
		// The epoch check is evaluated lazily once per drain (Clear scans
		// the whole pin table): the first call runs inside FreeDead under
		// the reclamation lock, after the drain observed its entries, which
		// is the ordering the safety argument needs — and it covers every
		// entry of the same drain, since all their unlinks happen-before
		// the queue read.
		clear := -1
		quiesced := func(stamp uint64) bool {
			if stamp >= wm {
				return false
			}
			if clear < 0 {
				if e.nodeEpoch.Clear() {
					clear = 1
				} else {
					clear = 0
				}
			}
			return clear == 1
		}
		if n := ix.FreeNodes(quiesced, limit); n > 0 {
			e.nodesFreed.Add(uint64(n))
		}
	})
}

// drainGraveyard moves parked transactions whose removal stamp is below the
// watermark into the reuse pool: every transaction that could have looked
// them up in the transaction table has itself terminated.
func (e *Engine) drainGraveyard(wm uint64) {
	if wm == 0 {
		return // no GC round has published a watermark yet
	}
	e.gravMu.Lock()
	h := e.gravHead
	for h < len(e.graveyard) && e.graveyard[h].stamp < wm {
		e.txPool.Put(e.graveyard[h].tx)
		e.graveyard[h] = deadTx{}
		h++
	}
	e.gravHead = h
	if h == len(e.graveyard) {
		e.graveyard = e.graveyard[:0]
		e.gravHead = 0
	} else if h > 1024 && h > len(e.graveyard)/2 {
		// Compact occasionally so the backing array doesn't creep.
		n := copy(e.graveyard, e.graveyard[h:])
		clear(e.graveyard[n:])
		e.graveyard = e.graveyard[:n]
		e.gravHead = 0
	}
	e.gravMu.Unlock()
}

// CollectGarbage runs a bounded garbage collection round and returns the
// number of versions reclaimed.
func (e *Engine) CollectGarbage(limit int) int { return e.collect(limit) }

// DetectDeadlocks runs one synchronous deadlock detection pass; it returns
// the number of victims aborted. Useful when the background detector is
// disabled.
func (e *Engine) DetectDeadlocks() int { return e.det.RunOnce() }
