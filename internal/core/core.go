// Package core is the public API of the storage engine library: a uniform
// Database/Tx interface over the three concurrency control mechanisms the
// paper evaluates — single-version locking (1V), multiversion pessimistic
// locking (MV/L) and multiversion optimistic validation (MV/O).
//
// A Database is created with a default scheme; with a multiversion database,
// individual transactions may override the scheme, because optimistic and
// pessimistic transactions coexist on one engine (Section 4.5). All four
// isolation levels of Section 2 are available (the single-version engine
// upgrades snapshot isolation to repeatable read).
//
//	db, _ := core.Open(core.Config{Scheme: core.MVOptimistic})
//	defer db.Close()
//	accounts, _ := db.CreateTable(core.TableSpec{
//		Name: "accounts",
//		Indexes: []core.IndexSpec{{Name: "id", Key: keyFn, Buckets: 1 << 16}},
//	})
//	tx := db.Begin(core.WithIsolation(core.Serializable))
//	...
//	if err := tx.Commit(); err != nil { /* aborted; maybe retry */ }
package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/iso"
	"repro/internal/keyenc"
	"repro/internal/mv"
	"repro/internal/storage"
	"repro/internal/sv"
	"repro/internal/ts"
	"repro/internal/wal"
)

// Scheme selects a concurrency control mechanism.
type Scheme int

const (
	// MVOptimistic is the multiversion optimistic scheme (MV/O, Section 3).
	MVOptimistic Scheme = iota
	// MVPessimistic is the multiversion locking scheme (MV/L, Section 4).
	MVPessimistic
	// SingleVersion is main-memory optimized single-version locking (1V,
	// Section 5).
	SingleVersion
)

// String returns the scheme label used in the paper's charts.
func (s Scheme) String() string {
	switch s {
	case MVOptimistic:
		return "MV/O"
	case MVPessimistic:
		return "MV/L"
	case SingleVersion:
		return "1V"
	default:
		return "Unknown"
	}
}

// Isolation levels, re-exported from package iso.
type Isolation = iso.Level

const (
	ReadCommitted     = iso.ReadCommitted
	SnapshotIsolation = iso.SnapshotIsolation
	RepeatableRead    = iso.RepeatableRead
	Serializable      = iso.Serializable
)

// IndexSpec describes one hash index.
type IndexSpec = storage.IndexSpec

// TableSpec describes a table and its indexes.
type TableSpec = storage.TableSpec

// Pred is a residual scan predicate; nil matches everything.
type Pred func(payload []byte) bool

// Durability levels for commit acknowledgements, re-exported from wal.
type Durability = wal.Durability

const (
	// DurabilityAsync acknowledges commits as soon as the redo record is
	// queued for group commit (the paper's measurement configuration).
	DurabilityAsync = wal.Async
	// DurabilityFlush acknowledges after the record's batch reached the log
	// sink; survives a process kill, not a power loss.
	DurabilityFlush = wal.Flush
	// DurabilityFsync acknowledges after the batch's per-group fsync; the
	// only level whose acknowledgement survives power loss.
	DurabilityFsync = wal.Fsync
)

// Config controls database construction.
type Config struct {
	// Scheme is the default concurrency control scheme for transactions.
	Scheme Scheme
	// LogSink, when non-nil, enables redo logging to the writer with
	// asynchronous group commit (the paper's experimental configuration).
	LogSink io.Writer
	// Durability selects the commit acknowledgement level (default
	// DurabilityAsync). DurabilityFsync requires a sink implementing
	// wal.Syncer (ckpt.Store, *os.File); otherwise it behaves as Flush.
	Durability Durability
	// LockTimeout bounds 1V lock waits (deadlock breaking); default 25ms.
	LockTimeout time.Duration
}

// Database is a main-memory database instance backed by one engine.
type Database struct {
	cfg   Config
	log   *wal.Log
	mvEng *mv.Engine
	svEng *sv.Engine
}

// Table is a handle to a table of whichever engine backs the database.
type Table struct {
	name string
	mvT  *storage.Table
	svT  *sv.Table
	// layouts[i] is index i's composite key layout (nil for plain uint64
	// keys), cached from the IndexSpec so ScanPrefix can turn field
	// prefixes into encoded key ranges without touching the engine.
	layouts []*keyenc.Layout
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Layout returns index i's composite key layout, or nil when the index
// keys on a plain uint64.
func (t *Table) Layout(i int) *keyenc.Layout { return t.layouts[i] }

// Open creates a database.
func Open(cfg Config) (*Database, error) {
	db := &Database{cfg: cfg}
	if cfg.LogSink != nil {
		db.log = wal.Open(wal.Config{Sink: cfg.LogSink, Durability: cfg.Durability})
	}
	switch cfg.Scheme {
	case SingleVersion:
		db.svEng = sv.NewEngine(sv.Config{Log: db.log, LockTimeout: cfg.LockTimeout})
	case MVOptimistic, MVPessimistic:
		db.mvEng = mv.NewEngine(mv.Config{Log: db.log})
	default:
		return nil, fmt.Errorf("core: unknown scheme %d", cfg.Scheme)
	}
	return db, nil
}

// Close stops background workers and closes the log.
func (db *Database) Close() error {
	if db.mvEng != nil {
		return db.mvEng.Close()
	}
	return db.svEng.Close()
}

// CreateTable registers a table.
func (db *Database) CreateTable(spec TableSpec) (*Table, error) {
	t := &Table{name: spec.Name, layouts: make([]*keyenc.Layout, len(spec.Indexes))}
	for i, is := range spec.Indexes {
		t.layouts[i] = is.Composite
	}
	var err error
	if db.mvEng != nil {
		t.mvT, err = db.mvEng.CreateTable(spec)
	} else {
		t.svT, err = db.svEng.CreateTable(spec)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// LoadRow bulk-loads a committed row outside any transaction. Not safe for
// concurrent use; intended for initial population. The engine keeps
// payload: the caller must not modify it after the call.
func (db *Database) LoadRow(t *Table, payload []byte) {
	if db.mvEng != nil {
		db.mvEng.LoadRow(t.mvT, payload)
	} else {
		db.svEng.LoadRow(t.svT, payload)
	}
}

// MV exposes the underlying multiversion engine (nil for 1V databases); used
// by tests and diagnostics.
func (db *Database) MV() *mv.Engine { return db.mvEng }

// SV exposes the underlying single-version engine (nil for MV databases).
func (db *Database) SV() *sv.Engine { return db.svEng }

// WAL exposes the database's redo log, or nil when logging is disabled. The
// checkpointer uses it to flush and fence the log around a checkpoint.
func (db *Database) WAL() *wal.Log { return db.log }

// FunnelStats returns the timestamp counter's current value in both fields:
// the MV oracle (transaction IDs and end timestamps), or the 1V end
// sequence. Every draw is one fetch-and-add, so deltas count draws. It
// exists for the benchmark module (benchmark/run.go); ROADMAP item 1(f)
// renames it.
func (db *Database) FunnelStats() ts.FunnelStats {
	var cur uint64
	if db.mvEng != nil {
		cur = db.mvEng.Oracle().Current()
	} else {
		_, cur = db.svEng.Counters()
	}
	return ts.FunnelStats{Draws: cur, Physical: cur}
}

// PinOverflows reports how many reader-pin acquisitions found every slot of
// the pin table occupied (mv.Stats.PinOverflows): read-only begins and
// checkpoint captures, each then covered by a registered transaction, and
// deadlock-detector passes, each then walking unpinned. Persistent overflow
// on a healthy workload means the pin table is undersized for the machine's
// concurrency. 1V has no pin table and reads 0.
func (db *Database) PinOverflows() uint64 {
	if db.mvEng != nil {
		return db.mvEng.Stats().PinOverflows
	}
	return 0
}

// Degraded returns the latched log failure that flipped the database into
// degraded read-only mode, or nil while healthy (always nil without a log).
// The latch is the log's own: the database degrades as soon as the flusher
// latches a write or fsync failure, at every durability level. A degraded
// database keeps serving reads and read-only snapshots; new writes fail
// fast with ErrDegraded, and an in-flight commit that hit the failure was
// aborted.
// Degradation is permanent for the database's lifetime — recovery from a
// disk fault means restarting from the log and checkpoints, not ignoring
// the hole a failed fsync left.
func (db *Database) Degraded() error {
	if !db.log.Failed() {
		return nil
	}
	return db.log.Err()
}

// Capture streams a transactionally consistent snapshot of the given tables
// to fn and returns the stable timestamp S: the snapshot contains the
// effects of exactly the committed transactions with end timestamp (1V: end
// sequence) at most S. This is the engine-neutral checkpoint scan — the
// multiversion engines capture versions visible at the GC watermark under a
// reader pin, and the single-version engine runs a shared-lock capture
// transaction (see mv.Engine.Capture and sv.Engine.Capture for the two
// consistency arguments). The payload passed to fn is valid only during the
// callback. On the 1V engine the capture waits out the writers it meets:
// each wait cycle it joins is broken by a writer's lock timeout, never by
// the capture's, so it fails only when fn does. Its one cost: an open 1V
// write transaction holding a lock the capture needs stalls it until that
// transaction ends.
func (db *Database) Capture(tables []*Table, fn func(t *Table, key uint64, payload []byte) error) (uint64, error) {
	if db.mvEng != nil {
		byEngine := make(map[*storage.Table]*Table, len(tables))
		mvTables := make([]*storage.Table, len(tables))
		for i, t := range tables {
			byEngine[t.mvT] = t
			mvTables[i] = t.mvT
		}
		return db.mvEng.Capture(mvTables, func(st *storage.Table, key uint64, payload []byte) error {
			return fn(byEngine[st], key, payload)
		})
	}
	byEngine := make(map[*sv.Table]*Table, len(tables))
	svTables := make([]*sv.Table, len(tables))
	for i, t := range tables {
		byEngine[t.svT] = t
		svTables[i] = t.svT
	}
	return db.svEng.Capture(svTables, func(st *sv.Table, key uint64, payload []byte) error {
		return fn(byEngine[st], key, payload)
	})
}

// CollectGarbage runs a bounded GC round on MV databases; it reports the
// number of versions reclaimed (always 0 for 1V: updates are in place).
func (db *Database) CollectGarbage(limit int) int {
	if db.mvEng != nil {
		return db.mvEng.CollectGarbage(limit)
	}
	return 0
}

// Stats merges engine counters into a uniform view.
type Stats struct {
	Commits           uint64
	Aborts            uint64
	WriteConflicts    uint64
	ValidationFails   uint64
	LockFailures      uint64
	LockTimeouts      uint64
	DeadlockVictims   uint64
	CascadingAborts   uint64
	SpeculativeReads  uint64
	VersionsRetired   uint64
	VersionsReclaimed uint64
}

// Stats returns a snapshot of the database's counters.
func (db *Database) Stats() Stats {
	if db.mvEng != nil {
		s := db.mvEng.Stats()
		return Stats{
			Commits:           s.Commits,
			Aborts:            s.Aborts,
			WriteConflicts:    s.WriteConflicts,
			ValidationFails:   s.ValidationFails,
			LockFailures:      s.LockFailures,
			DeadlockVictims:   s.DeadlockVictims,
			CascadingAborts:   s.CascadingAborts,
			SpeculativeReads:  s.SpeculativeReads,
			VersionsRetired:   s.VersionsRetired,
			VersionsReclaimed: s.VersionsReclaims,
		}
	}
	s := db.svEng.Stats()
	return Stats{Commits: s.Commits, Aborts: s.Aborts, LockTimeouts: s.LockTimeouts}
}

// LogStats returns the write-ahead log's activity counters — appended and
// flushed records, batches, bytes, fsyncs issued (the group-commit
// amortization ratio is Appended/Syncs) and the total time the flusher spent
// in them (SyncNanos/Syncs is the mean fsync, the unit a durable commit's
// latency is measured against), and HeldNanos, the time the flusher held due
// batches open for the rest of their committer cohort (bounded by the fsyncs,
// so it stays below SyncNanos). Zero-valued when the database was opened
// without a log sink.
func (db *Database) LogStats() wal.LogStats {
	if db.log == nil {
		return wal.LogStats{}
	}
	return db.log.Stats()
}

// txOptions collects Begin options.
type txOptions struct {
	iso       Isolation
	scheme    Scheme
	hasScheme bool
	readOnly  bool
}

// TxOption configures a transaction at Begin. It is a value transform, not
// a setter through a pointer, so Begin's options stay on its stack: handing
// &o to an unknown function would move them to the heap on every Begin.
type TxOption func(txOptions) txOptions

// isoOptions holds one prebuilt option closure per isolation level so
// WithIsolation allocates nothing on the transaction hot path.
var isoOptions = [...]TxOption{
	iso.ReadCommitted:     func(o txOptions) txOptions { o.iso = iso.ReadCommitted; return o },
	iso.SnapshotIsolation: func(o txOptions) txOptions { o.iso = iso.SnapshotIsolation; return o },
	iso.RepeatableRead:    func(o txOptions) txOptions { o.iso = iso.RepeatableRead; return o },
	iso.Serializable:      func(o txOptions) txOptions { o.iso = iso.Serializable; return o },
}

// WithIsolation selects the isolation level (default ReadCommitted, the
// default level of the paper's experiments and of many commercial engines).
func WithIsolation(level Isolation) TxOption {
	if int(level) >= 0 && int(level) < len(isoOptions) && isoOptions[level] != nil {
		return isoOptions[level]
	}
	return func(o txOptions) txOptions { o.iso = level; return o }
}

// schemeOptions mirrors isoOptions for WithScheme.
var schemeOptions = [...]TxOption{
	MVOptimistic:  func(o txOptions) txOptions { o.scheme = MVOptimistic; o.hasScheme = true; return o },
	MVPessimistic: func(o txOptions) txOptions { o.scheme = MVPessimistic; o.hasScheme = true; return o },
	SingleVersion: func(o txOptions) txOptions { o.scheme = SingleVersion; o.hasScheme = true; return o },
}

// WithScheme overrides the concurrency control scheme for one transaction.
// Only meaningful on multiversion databases, where optimistic and
// pessimistic transactions can be mixed; ignored on 1V.
func WithScheme(s Scheme) TxOption {
	if int(s) >= 0 && int(s) < len(schemeOptions) && schemeOptions[s] != nil {
		return schemeOptions[s]
	}
	return func(o txOptions) txOptions { o.scheme = s; o.hasScheme = true; return o }
}

// readOnlyOption is the single prebuilt WithReadOnly closure (hot path,
// allocation-free like isoOptions).
var readOnlyOption TxOption = func(o txOptions) txOptions { o.readOnly = true; return o }

// WithReadOnly declares the transaction read-only with a transactionally
// consistent view. On a multiversion database this selects the
// registration-free snapshot fast lane: the transaction reads a consistent
// snapshot without incrementing the timestamp oracle or entering the
// transaction table (see mv.Engine.BeginReadOnly). On a single-version
// database it runs at snapshot isolation (upgraded to repeatable read by
// that engine), so reads are stable there too. Any mutation through a
// read-only transaction fails with ErrReadOnlyTx; any WithIsolation option
// is overridden.
func WithReadOnly() TxOption { return readOnlyOption }

// ErrUnordered is returned when ScanRange is called on an index that was
// not declared Ordered in its IndexSpec.
var ErrUnordered = storage.ErrUnordered

// ErrDuplicateKey is returned by Insert when the new row's primary key (the
// key of index 0) is already held, on every scheme. On MV a concurrent
// uncommitted insert of the key holds it too (first writer wins); on 1V
// such an insert blocks the second on the key's lock instead.
var ErrDuplicateKey = storage.ErrDuplicateKey

// ErrPayloadTooLarge is returned by Insert and Update for a payload above
// storage.MaxPayload bytes, on every scheme.
var ErrPayloadTooLarge = storage.ErrPayloadTooLarge

// ErrNotComposite is returned when ScanPrefix is called on an index whose
// IndexSpec declared no Composite key layout.
var ErrNotComposite = errors.New("core: index has no composite key layout")

// ErrReadOnlyTx is returned when a mutation is attempted through a
// read-only transaction.
var ErrReadOnlyTx = mv.ErrReadOnlyTx

// ErrDegraded is returned by write paths after a latched log failure flipped
// the database into degraded read-only mode (see Database.Degraded).
var ErrDegraded = wal.ErrDegraded

// ErrTxDone is returned when operating on a transaction handle after Commit
// or Abort has returned (see Tx).
var ErrTxDone = mv.ErrTxDone

// Tx is a transaction against a Database. A Tx must not be used after
// Commit or Abort returns; the handle clears its engine references on
// completion, so late calls always fail fast with ErrTxDone. The handle is
// the transaction's one allocation (newTx): the engine-level transaction
// object underneath is pooled, with quiescence-gated recycling, and Begin
// allocates nothing else.
type Tx struct {
	db       *Database
	mvTx     *mv.Tx
	svTx     *sv.Tx
	readOnly bool
}

// newTx allocates a transaction handle. It is never pooled: a caller that
// keeps a handle past Commit or Abort holds a pointer no one else can be
// given, so its late calls fail with ErrTxDone; a recycled handle would let
// that stale pointer silently operate on another goroutine's live
// transaction. Kept out of line so Begin's own body stays allocation-free
// under mvlint's noalloc check.
//
//go:noinline
func newTx(db *Database, readOnly bool) *Tx {
	return &Tx{db: db, readOnly: readOnly}
}

// Begin starts a transaction.
//
//mvlint:noalloc
func (db *Database) Begin(opts ...TxOption) *Tx {
	o := txOptions{iso: ReadCommitted, scheme: db.cfg.Scheme}
	for _, fn := range opts {
		o = fn(o)
	}
	tx := newTx(db, o.readOnly)
	if db.mvEng != nil {
		if o.readOnly {
			tx.mvTx = db.mvEng.BeginReadOnly()
			return tx
		}
		scheme := mv.Optimistic
		if o.scheme == MVPessimistic {
			scheme = mv.Pessimistic
		}
		tx.mvTx = db.mvEng.Begin(scheme, o.iso)
	} else {
		if o.readOnly {
			// Read-only transactions promise a transactionally consistent
			// view on every engine: the MV fast lane reads a snapshot, and
			// the 1V fast lane matches it with read stability (repeatable
			// read) while skipping both shared-sequence draws.
			tx.svTx = db.svEng.BeginReadOnly()
			return tx
		}
		tx.svTx = db.svEng.Begin(o.iso)
	}
	return tx
}

// BeginReadOnly starts a read-only snapshot transaction; shorthand for
// Begin(WithReadOnly()).
//
//mvlint:noalloc
func (db *Database) BeginReadOnly() *Tx { return db.Begin(readOnlyOption) }

// release clears the engine transaction references so any later call on the
// handle reports ErrTxDone.
func (tx *Tx) release() {
	tx.db, tx.mvTx, tx.svTx = nil, nil, nil
}

// Row is a handle to a record found by Lookup or Scan, usable as the target
// of Update and Delete within the same transaction.
type Row struct {
	payload []byte
	mvV     *storage.Version
	svR     *sv.Record
}

// Payload returns the row's data as seen by the reading transaction. The
// slice must not be modified.
func (r Row) Payload() []byte { return r.payload }

// Valid reports whether the row references a record.
func (r Row) Valid() bool { return r.mvV != nil || r.svR != nil }

// Scan iterates visible rows in the named index with the given key, calling
// fn for each; fn returning false stops the scan. The payload passed to fn
// is only valid during the callback.
func (tx *Tx) Scan(t *Table, index int, key uint64, pred Pred, fn func(Row) bool) error {
	if tx.mvTx != nil {
		return tx.mvTx.Scan(t.mvT, index, key, mv.Pred(pred), func(v *storage.Version) bool {
			return fn(Row{payload: v.Payload(), mvV: v})
		})
	}
	if tx.svTx == nil {
		return ErrTxDone
	}
	return tx.svTx.Scan(t.svT, index, key, sv.Pred(pred), func(r *sv.Record) bool {
		return fn(Row{payload: r.Payload(), svR: r})
	})
}

// ScanRange iterates visible rows whose keys in the named index fall in
// [lo, hi] (both inclusive), in ascending key order, calling fn for each; fn
// returning false stops the scan. The index must have been declared Ordered
// in its IndexSpec or ErrUnordered is returned. The payload passed to fn is
// only valid during the callback.
//
// Range scans carry full isolation semantics on every engine: under
// serializable isolation a concurrent insert into the scanned range is
// either aborted against (MV/O revalidates the range at commit), delayed
// (MV/L range locks force inserters to wait), or blocked outright (1V holds
// a shared range lock to commit) — see docs/indexes.md.
func (tx *Tx) ScanRange(t *Table, index int, lo, hi uint64, pred Pred, fn func(Row) bool) error {
	if tx.mvTx != nil {
		return tx.mvTx.ScanRange(t.mvT, index, lo, hi, mv.Pred(pred), func(v *storage.Version) bool {
			return fn(Row{payload: v.Payload(), mvV: v})
		})
	}
	if tx.svTx == nil {
		return ErrTxDone
	}
	return tx.svTx.ScanRange(t.svT, index, lo, hi, sv.Pred(pred), func(r *sv.Record) bool {
		return fn(Row{payload: r.Payload(), svR: r})
	})
}

// ScanPrefix iterates visible rows whose composite key in the named index
// starts with the given field prefix, in ascending key order. The index
// must carry a Composite layout in its IndexSpec (ErrNotComposite) and be
// Ordered (ErrUnordered); prefix may name any leading subset of the
// layout's fields, down to none (full index scan) and up to all of them
// (exact tuple). The prefix is translated into the encoded key interval
// [lo, hi] covering exactly the matching tuples and delegated to ScanRange,
// so a prefix scan carries the same isolation semantics — under
// serializable isolation, a concurrent insert of a row with the scanned
// prefix is aborted against (MV/O), delayed (MV/L) or blocked (1V), making
// composite prefix scans phantom safe on every engine.
func (tx *Tx) ScanPrefix(t *Table, index int, prefix []uint64, pred Pred, fn func(Row) bool) error {
	if tx.mvTx == nil && tx.svTx == nil {
		return ErrTxDone
	}
	layout := t.layouts[index]
	if layout == nil {
		return ErrNotComposite
	}
	lo, hi, err := layout.PrefixRange(prefix...)
	if err != nil {
		return err
	}
	return tx.ScanRange(t, index, lo, hi, pred, fn)
}

// LookupPrefix returns a copy of every visible row whose composite key in
// the named index starts with prefix, in ascending key order. Convenience
// wrapper over ScanPrefix for small result sets.
func (tx *Tx) LookupPrefix(t *Table, index int, prefix []uint64, pred Pred) ([][]byte, error) {
	var out [][]byte
	err := tx.ScanPrefix(t, index, prefix, pred, func(r Row) bool {
		out = append(out, append([]byte(nil), r.payload...))
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LookupRange returns a copy of every visible row in [lo, hi] of the named
// ordered index, in ascending key order. Convenience wrapper over ScanRange
// for small result sets.
func (tx *Tx) LookupRange(t *Table, index int, lo, hi uint64, pred Pred) ([][]byte, error) {
	var out [][]byte
	err := tx.ScanRange(t, index, lo, hi, pred, func(r Row) bool {
		out = append(out, append([]byte(nil), r.payload...))
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Lookup returns the first visible row matching key and pred. The returned
// payload is a copy and remains valid after the call.
func (tx *Tx) Lookup(t *Table, index int, key uint64, pred Pred) (Row, bool, error) {
	var row Row
	err := tx.Scan(t, index, key, pred, func(r Row) bool {
		row = r
		row.payload = append([]byte(nil), r.payload...)
		return false
	})
	if err != nil {
		return Row{}, false, err
	}
	return row, row.Valid(), nil
}

// Insert adds a new record. The engine keeps payload: the caller must not
// modify it after the call.
func (tx *Tx) Insert(t *Table, payload []byte) error {
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.mvTx != nil {
		return tx.mvTx.Insert(t.mvT, payload)
	}
	if tx.svTx == nil {
		return ErrTxDone
	}
	return tx.svTx.Insert(t.svT, payload)
}

// Update replaces the record identified by row with newPayload. The engine
// keeps newPayload: the caller must not modify it after the call.
func (tx *Tx) Update(t *Table, row Row, newPayload []byte) error {
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.mvTx != nil {
		return tx.mvTx.Update(t.mvT, row.mvV, newPayload)
	}
	if tx.svTx == nil {
		return ErrTxDone
	}
	return tx.svTx.Update(t.svT, row.svR, newPayload)
}

// Delete removes the record identified by row.
func (tx *Tx) Delete(t *Table, row Row) error {
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.mvTx != nil {
		return tx.mvTx.Delete(t.mvT, row.mvV)
	}
	if tx.svTx == nil {
		return ErrTxDone
	}
	return tx.svTx.Delete(t.svT, row.svR)
}

// UpdateWhere updates every visible row matching key and pred with mut(old),
// returning the number updated. old belongs to the engine and must not be
// modified. The engine keeps the slice mut returns, as Update keeps
// newPayload: mut must return a slice nobody modifies afterwards.
func (tx *Tx) UpdateWhere(t *Table, index int, key uint64, pred Pred, mut func(old []byte) []byte) (int, error) {
	if tx.readOnly {
		return 0, ErrReadOnlyTx
	}
	if tx.mvTx != nil {
		return tx.mvTx.UpdateWhere(t.mvT, index, key, mv.Pred(pred), mut)
	}
	if tx.svTx == nil {
		return 0, ErrTxDone
	}
	return tx.svTx.UpdateWhere(t.svT, index, key, sv.Pred(pred), mut)
}

// DeleteWhere deletes every visible row matching key and pred, returning the
// number deleted.
func (tx *Tx) DeleteWhere(t *Table, index int, key uint64, pred Pred) (int, error) {
	if tx.readOnly {
		return 0, ErrReadOnlyTx
	}
	if tx.mvTx != nil {
		return tx.mvTx.DeleteWhere(t.mvT, index, key, mv.Pred(pred))
	}
	if tx.svTx == nil {
		return 0, ErrTxDone
	}
	return tx.svTx.DeleteWhere(t.svT, index, key, sv.Pred(pred))
}

// Commit attempts to commit. A non-nil error means the transaction aborted
// (write-write conflict, validation failure, lock failure or timeout,
// dependency cascade, deadlock victim); the caller may retry with a fresh
// transaction. The handle must not be used after Commit returns.
func (tx *Tx) Commit() error {
	_, err := tx.CommitTS()
	return err
}

// CommitTS commits like Commit and additionally returns the transaction's
// serialization stamp: the multiversion end timestamp, or the 1V writer's
// end sequence number. A zero stamp with a nil error means the commit point
// is unordered (an MV fast commit, or a 1V transaction that wrote nothing);
// history checkers stamp those externally. The stamp is captured inside the
// engine's commit — engine transaction objects are pooled, so reading a
// timestamp off the engine transaction after Commit returns would race with
// recycling.
func (tx *Tx) CommitTS() (uint64, error) {
	if tx.mvTx != nil {
		end, err := tx.mvTx.CommitTS()
		tx.release()
		return end, err
	}
	if tx.svTx == nil {
		return 0, ErrTxDone
	}
	end, err := tx.svTx.CommitTS()
	tx.release()
	return end, err
}

// Abort rolls the transaction back. The handle must not be used after Abort
// returns.
func (tx *Tx) Abort() error {
	if tx.mvTx != nil {
		err := tx.mvTx.Abort()
		tx.release()
		return err
	}
	if tx.svTx == nil {
		return ErrTxDone
	}
	err := tx.svTx.Abort()
	tx.release()
	return err
}
