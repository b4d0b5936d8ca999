package sv

import (
	"errors"
	"slices"
	"sync/atomic"

	"repro/internal/iso"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Pred is a residual predicate on record payloads; nil matches everything.
type Pred func(payload []byte) bool

var (
	// ErrTxDone is returned when operating on a finished transaction.
	ErrTxDone = errors.New("sv: transaction already finished")
	// ErrConflict is returned when a record changed identity under the
	// transaction (deleted or relocated between lookup and update).
	ErrConflict = errors.New("sv: record conflict")
	// ErrReadOnlyTx is returned when a mutation is attempted on a read-only
	// fast-lane transaction (BeginReadOnly).
	ErrReadOnlyTx = errors.New("sv: read-only transaction cannot write")
)

// ErrDegraded is returned by mutation entry points after a latched log
// failure flipped the engine into degraded read-only mode. It aliases
// wal.ErrDegraded so errors.Is matches across packages.
var ErrDegraded = wal.ErrDegraded

type heldLock struct {
	l    *keyLock
	ws   *waitStripe
	s, x int
}

type undoKind uint8

const (
	undoInsert undoKind = iota
	undoUpdate
	undoDelete
)

type undoRec struct {
	kind       undoKind
	t          *Table
	r          *Record
	oldPayload []byte
	oldKeys    []uint64 // carved from Tx.keyBuf; nil for undoInsert
}

// Tx is a single-version transaction: strict two-phase locking with
// cursor-stability reads at read committed, in-place updates with undo.
//
// Tx objects are pooled by their engine: Commit and Abort hand the object,
// with its bookkeeping slices truncated in place, to the next Begin. A Tx
// must not be used after Commit or Abort returns; until it is reissued such
// a call reports ErrTxDone.
type Tx struct {
	e    *Engine
	id   uint64
	done bool
	// short marks read committed: read locks are released when the read
	// ends (cursor stability) instead of being held to commit.
	short bool
	// readOnly marks a fast-lane reader from BeginReadOnly: it drew no
	// transaction ID (id 0 — shared locks carry no owner identity, so none
	// is needed), draws no end sequence at commit, and rejects mutations.
	readOnly bool

	held       []heldLock
	heldIdx    map[*keyLock]int // index into held, built once held outgrows heldScanMax
	heldRanges []storage.RangeHold
	undo       []undoRec
	writes     []wal.Entry
	// keyBuf backs every undoRec.oldKeys and Update's new-key scratch.
	// Carved sub-slices are never written again, so when an append moves
	// keyBuf to a larger array the ones already handed out stay valid.
	keyBuf []uint64
	// targets is collectMatches' result buffer. UpdateWhere and DeleteWhere
	// detach it while they iterate, so a mut that re-enters the Tx gets its
	// own.
	targets []*Record
}

// txKeepMax caps the capacity of each bookkeeping slice a pooled Tx keeps.
// A checkpoint capture holds one lock per hash bucket; without the cap the
// pool would pin that bucket-count-sized buffer for the life of the process.
const txKeepMax = 256

// Begin starts a transaction. Snapshot isolation is not expressible in a
// single-version engine; it is upgraded to repeatable read, which like
// serializable holds every read lock to commit.
//
// The Tx comes from the engine's pool: it must not be used after Commit or
// Abort returns.
//
//mvlint:noalloc
func (e *Engine) Begin(level iso.Level) *Tx {
	return e.getTx(e.txSeq.Add(1), level == iso.ReadCommitted, false)
}

// getTx takes a Tx from the pool and arms it. The pool hands out empty
// bookkeeping (putTx truncated it).
func (e *Engine) getTx(id uint64, short, readOnly bool) *Tx {
	tx := e.txPool.Get().(*Tx)
	tx.id, tx.done, tx.short, tx.readOnly = id, false, short, readOnly
	return tx
}

// putTx empties tx's bookkeeping in place and returns it to the pool. tx's
// locks are released and it is marked done, so a stale caller sees ErrTxDone
// until the next Begin reissues the object.
//
//mvlint:noalloc
func (e *Engine) putTx(tx *Tx) {
	tx.held = recycled(tx.held)
	tx.heldIdx = nil
	tx.heldRanges = recycled(tx.heldRanges)
	tx.undo = recycled(tx.undo)
	tx.writes = recycled(tx.writes)
	tx.keyBuf = recycled(tx.keyBuf)
	tx.targets = recycled(tx.targets)
	e.txPool.Put(tx)
}

// recycled returns s emptied for the next transaction, with its old entries
// cleared so the pool retains no records, tables or payloads; a slice that
// grew past txKeepMax is dropped instead.
func recycled[S ~[]E, E any](s S) S {
	if cap(s) > txKeepMax {
		return nil
	}
	clear(s)
	return s[:0]
}

// carveKeys returns n fresh slots at the end of keyBuf.
func (tx *Tx) carveKeys(n int) []uint64 {
	at := len(tx.keyBuf)
	tx.keyBuf = slices.Grow(tx.keyBuf, n)[:at+n]
	return tx.keyBuf[at : at+n : at+n]
}

// BeginReadOnly starts a read-only transaction on the 1V fast lane: it draws
// no transaction ID (shared lock acquisition needs no owner identity) and
// its commit skips the end-sequence draw, so — like the multiversion
// engine's BeginReadOnly — a read transaction performs zero shared-counter
// increments. Reads run at repeatable read (read locks held to commit), the
// strongest consistency a read-only transaction needs in this engine; every
// mutation fails with ErrReadOnlyTx.
//
// Unlike the MV fast lane this does not make reads lock-free: single-version
// records have no timestamps, so even read-only transactions must take
// shared locks for read stability (Section 5.2.1). The fast lane removes the
// two shared counters, not the locks.
//
//mvlint:noalloc
func (e *Engine) BeginReadOnly() *Tx {
	e.roBegins.Add(1)
	return e.getTx(0, false, true)
}

// ReadOnly reports whether the transaction is a fast-lane reader.
func (tx *Tx) ReadOnly() bool { return tx.readOnly }

// heldScanMax is how many held locks registered looks up by scanning: a
// short transaction re-locks what it touched last (read, then update), and a
// dozen pointer compares beat a map. Past it the lookup goes through heldIdx,
// so a transaction holding n locks costs O(n), not O(n^2) — a 1V checkpoint
// capture holds one per hash bucket.
const heldScanMax = 16

// registered returns tx's entry for l, adding an empty one, with l's wait
// stripe ws, if tx does not hold l yet. The pointer is valid until the next
// call.
func (tx *Tx) registered(l *keyLock, ws *waitStripe) *heldLock {
	n := len(tx.held)
	if n <= heldScanMax {
		for i := n - 1; i >= 0; i-- {
			if tx.held[i].l == l {
				return &tx.held[i]
			}
		}
	} else {
		if tx.heldIdx == nil {
			tx.heldIdx = make(map[*keyLock]int, 2*n)
			for i := range tx.held {
				tx.heldIdx[tx.held[i].l] = i
			}
		}
		if i, ok := tx.heldIdx[l]; ok {
			return &tx.held[i]
		}
		tx.heldIdx[l] = n
	}
	tx.held = append(tx.held, heldLock{l: l, ws: ws})
	return &tx.held[n]
}

// lockS acquires and registers a shared lock held to commit.
func (tx *Tx) lockS(l *keyLock, ws *waitStripe) error {
	if err := l.acquireS(tx.id, tx.e.cfg.LockTimeout, ws); err != nil {
		tx.e.timeouts.Add(1)
		return err
	}
	tx.registered(l, ws).s++
	return nil
}

// lockX acquires and registers an exclusive lock held to commit. A
// transaction that already holds shared locks on the same key upgrades.
func (tx *Tx) lockX(l *keyLock, ws *waitStripe) error {
	h := tx.registered(l, ws)
	if err := l.acquireX(tx.id, h.s, tx.e.cfg.LockTimeout, ws); err != nil {
		tx.e.timeouts.Add(1)
		return err
	}
	h.x++
	return nil
}

// lockRange acquires a range lock held to commit on an ordered index. A
// range already covered by one the transaction holds takes no new entry.
func (tx *Tx) lockRange(rl *storage.RangeLockTable, lo, hi uint64, excl bool) error {
	if storage.RangeCovered(tx.heldRanges, rl, lo, hi, excl) {
		return nil
	}
	if err := tx.acquireRange(rl, lo, hi, excl); err != nil {
		return err
	}
	tx.heldRanges = append(tx.heldRanges, storage.RangeHold{Table: rl, Lo: lo, Hi: hi, Excl: excl})
	return nil
}

// acquireRange takes one entry on [lo, hi], counting a timeout.
func (tx *Tx) acquireRange(rl *storage.RangeLockTable, lo, hi uint64, excl bool) error {
	if !rl.Acquire(lo, hi, tx.id, excl, tx.e.cfg.LockTimeout) {
		tx.e.timeouts.Add(1)
		return ErrLockTimeout
	}
	return nil
}

// finish releases every lock, counts the outcome and returns tx to the
// pool. tx must not be touched afterwards.
func (tx *Tx) finish(outcome *atomic.Uint64) {
	for i := range tx.held {
		h := &tx.held[i]
		h.l.releaseBulk(tx.id, h.s, h.x > 0, h.ws)
	}
	for i := range tx.heldRanges {
		h := &tx.heldRanges[i]
		h.Table.Release(h.Lo, h.Hi, tx.id, h.Excl)
	}
	tx.done = true
	e := tx.e
	outcome.Add(1)
	e.maybeReclaim()
	e.putTx(tx)
}

// Scan iterates the records in index indexOrd whose key equals key and whose
// payload satisfies pred. On a hash index the bucket's lock covers every
// record with the hash key; on an ordered index a range lock on [key, key]
// covers the key whether or not it physically exists. Holding the cover to
// commit (repeatable read and above) provides both read stability and
// phantom protection; at read committed the cover is released when the scan
// ends (cursor stability). fn must not retain the record or its payload
// beyond the callback unless the isolation level holds the lock.
func (tx *Tx) Scan(t *Table, indexOrd int, key uint64, pred Pred, fn func(*Record) bool) error {
	if tx.done {
		return ErrTxDone
	}
	short := tx.short
	if ix := t.hashIxs[indexOrd]; ix != nil {
		b, ws := ix.bucket(key)
		l := &b.lock
		if short {
			if err := l.acquireS(tx.id, tx.e.cfg.LockTimeout, ws); err != nil {
				tx.e.timeouts.Add(1)
				return err
			}
			defer l.releaseS(ws)
		} else {
			if err := tx.lockS(l, ws); err != nil {
				return err
			}
		}
		scanChain(b.head, indexOrd, key, pred, fn)
		return nil
	}
	ix := t.indexes[indexOrd].(*orderedIndex)
	if short {
		if err := tx.acquireRange(&ix.rl, key, key, false); err != nil {
			return err
		}
		defer ix.rl.Release(key, key, tx.id, false)
	} else {
		if err := tx.lockRange(&ix.rl, key, key, false); err != nil {
			return err
		}
	}
	n := ix.list.Get(key)
	if n == nil {
		return nil
	}
	scanChain(n.V.head, indexOrd, key, pred, fn)
	return nil
}

// scanChain walks one record chain, filtering deleted records, key
// mismatches (hash collisions) and the residual predicate.
//
//mvlint:noalloc
func scanChain(head *Record, ord int, key uint64, pred Pred, fn func(*Record) bool) {
	for r := head; r != nil; r = r.link(ord).next {
		if r.deleted || r.link(ord).key != key {
			continue
		}
		if pred != nil && !pred(r.Payload()) {
			continue
		}
		if !fn(r) {
			return
		}
	}
}

// ScanRange iterates the records with keys in [lo, hi] (inclusive) in
// ascending key order. The index must be Ordered or storage.ErrUnordered is
// returned. The scan takes a shared range lock on [lo, hi]: held to commit
// at repeatable read and serializable (read stability + phantom avoidance —
// an insert into the range blocks until the scanner completes), released at
// end of scan at read committed (cursor stability).
func (tx *Tx) ScanRange(t *Table, indexOrd int, lo, hi uint64, pred Pred, fn func(*Record) bool) error {
	if tx.done {
		return ErrTxDone
	}
	ix, ok := t.indexes[indexOrd].(*orderedIndex)
	if !ok {
		return storage.ErrUnordered
	}
	if lo > hi {
		return nil
	}
	short := tx.short
	if short {
		if err := tx.acquireRange(&ix.rl, lo, hi, false); err != nil {
			return err
		}
		defer ix.rl.Release(lo, hi, tx.id, false)
	} else {
		if err := tx.lockRange(&ix.rl, lo, hi, false); err != nil {
			return err
		}
	}
	// Swept nodes keep their outgoing pointers, so a cursor parked on one
	// continues into the live list.
	for n := ix.list.Seek(lo); n != nil && n.Key() <= hi; n = n.Next() {
		for r := n.V.head; r != nil; r = r.link(indexOrd).next {
			if r.deleted {
				continue
			}
			if pred != nil && !pred(r.Payload()) {
				continue
			}
			if !fn(r) {
				return nil
			}
		}
	}
	return nil
}

// Lookup returns the first matching record.
func (tx *Tx) Lookup(t *Table, indexOrd int, key uint64, pred Pred) (*Record, bool, error) {
	var found *Record
	err := tx.Scan(t, indexOrd, key, pred, func(r *Record) bool {
		found = r
		return false
	})
	if err != nil {
		return nil, false, err
	}
	return found, found != nil, nil
}

// lockKeyX takes the exclusive cover for key on one index: the bucket lock
// of a hash index, or an X point-range on an ordered one.
func (tx *Tx) lockKeyX(ix svIndex, key uint64) error {
	switch ix := ix.(type) {
	case *hashIndex:
		b, ws := ix.bucket(key)
		return tx.lockX(&b.lock, ws)
	case *orderedIndex:
		return tx.lockRange(&ix.rl, key, key, true)
	}
	return ErrConflict // unreachable
}

// Insert creates a record, exclusively locking its key cover in every index
// and linking it. Readers of those covers block until commit. The record
// keeps payload by reference: the caller must not modify it after the call.
// An insert of a primary key (the key of index 0) that a live record holds
// fails with storage.ErrDuplicateKey; a record this transaction deleted no longer
// holds its key. A payload above storage.MaxPayload fails with
// storage.ErrPayloadTooLarge, as on MV.
func (tx *Tx) Insert(t *Table, payload []byte) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.e.cfg.Log.Failed() {
		return ErrDegraded
	}
	if len(payload) > storage.MaxPayload {
		return storage.ErrPayloadTooLarge
	}
	r := newRecord(t, payload)
	for ord, ix := range t.indexes {
		if err := tx.lockKeyX(ix, r.link(ord).key); err != nil {
			return err
		}
	}
	if holdsKey(t.indexes[0].chain(r.inline[0].key), r.inline[0].key) {
		return storage.ErrDuplicateKey
	}
	for _, ix := range t.indexes {
		ix.link(r)
	}
	tx.undo = append(tx.undo, undoRec{kind: undoInsert, t: t, r: r})
	tx.writes = append(tx.writes, wal.Entry{Table: t.Name, Op: wal.OpInsert, Key: r.link(0).key, Payload: payload})
	return nil
}

// holdsKey reports whether the index-0 chain from head holds a live record
// whose primary key is key. The caller holds key's exclusive cover, which
// covers every record with that key, so the walk reads only settled records,
// one cache line each.
//
//mvlint:noalloc
func holdsKey(head *Record, key uint64) bool {
	for r := head; r != nil; r = r.inline[0].next {
		if !r.deleted && r.inline[0].key == key {
			return true
		}
	}
	return false
}

// lockRecordX exclusively locks every cover of r, verifying that r's
// identity did not change while the locks were being acquired. The returned
// keys are carved from keyBuf.
func (tx *Tx) lockRecordX(t *Table, r *Record) ([]uint64, error) {
	keys := tx.carveKeys(len(t.indexes))
	for ord := range keys {
		keys[ord] = r.link(ord).key
	}
	for ord, ix := range t.indexes {
		if err := tx.lockKeyX(ix, keys[ord]); err != nil {
			return nil, err
		}
	}
	for ord := range t.indexes {
		if r.link(ord).key != keys[ord] {
			return nil, ErrConflict // relocated concurrently; extremely rare
		}
	}
	if r.deleted {
		return nil, ErrConflict
	}
	return keys, nil
}

// Update overwrites r's payload in place, relocating it between chains if an
// index key changed. The record keeps newPayload by reference: the caller
// must not modify it after the call. A payload above storage.MaxPayload
// fails with storage.ErrPayloadTooLarge.
func (tx *Tx) Update(t *Table, r *Record, newPayload []byte) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.e.cfg.Log.Failed() {
		return ErrDegraded
	}
	if len(newPayload) > storage.MaxPayload {
		return storage.ErrPayloadTooLarge
	}
	oldKeys, err := tx.lockRecordX(t, r)
	if err != nil {
		return err
	}
	newKeys := tx.carveKeys(len(t.indexes))
	for ord, ix := range t.indexes {
		newKeys[ord] = ix.keyOf(newPayload)
	}
	// Lock destination covers for any key change before relinking.
	for ord, ix := range t.indexes {
		if newKeys[ord] != oldKeys[ord] {
			if err := tx.lockKeyX(ix, newKeys[ord]); err != nil {
				return err
			}
		}
	}
	tx.undo = append(tx.undo, undoRec{
		kind:       undoUpdate,
		t:          t,
		r:          r,
		oldPayload: r.Payload(),
		oldKeys:    oldKeys,
	})
	r.setPayload(newPayload)
	relink(t, r, newKeys)
	tx.writes = append(tx.writes, wal.Entry{Table: t.Name, Op: wal.OpUpdate, Key: newKeys[0], Payload: newPayload})
	return nil
}

// relink moves r to the chains of keys in every index whose key differs from
// r's cached one. The caller holds the exclusive covers of both keys.
func relink(t *Table, r *Record, keys []uint64) {
	for ord, ix := range t.indexes {
		if l := r.link(ord); l.key != keys[ord] {
			ix.unlink(r, l.key)
		}
	}
	for ord, ix := range t.indexes {
		if l := r.link(ord); l.key != keys[ord] {
			l.key = keys[ord]
			ix.link(r)
		}
	}
}

// Delete marks r deleted; the record is physically unlinked at commit, while
// the exclusive locks are still held.
func (tx *Tx) Delete(t *Table, r *Record) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.e.cfg.Log.Failed() {
		return ErrDegraded
	}
	oldKeys, err := tx.lockRecordX(t, r)
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoRec{
		kind:       undoDelete,
		t:          t,
		r:          r,
		oldPayload: r.Payload(),
		oldKeys:    oldKeys,
	})
	r.deleted = true
	tx.writes = append(tx.writes, wal.Entry{Table: t.Name, Op: wal.OpDelete, Key: oldKeys[0]})
	return nil
}

// collectMatches locks the cover for key shared-held-to-commit (the scan
// feeds an update, so cursor stability must extend to the write) and returns
// the matching records.
func (tx *Tx) collectMatches(t *Table, indexOrd int, key uint64, pred Pred) ([]*Record, error) {
	var head *Record
	switch ix := t.indexes[indexOrd].(type) {
	case *hashIndex:
		b, ws := ix.bucket(key)
		if err := tx.lockS(&b.lock, ws); err != nil {
			return nil, err
		}
		head = b.head
	case *orderedIndex:
		if err := tx.lockRange(&ix.rl, key, key, false); err != nil {
			return nil, err
		}
		head = ix.chain(key)
	}
	// Detach the buffer while the caller iterates the result: a mut that
	// re-enters the Tx must not append into it. putTargets reattaches it.
	targets := tx.targets
	tx.targets = nil
	scanChain(head, indexOrd, key, pred, func(r *Record) bool {
		targets = append(targets, r)
		return true
	})
	return targets, nil
}

// putTargets hands a collectMatches result back to tx for reuse and returns
// what UpdateWhere and DeleteWhere report: the number of targets, or 0 and
// err when one of them failed.
func (tx *Tx) putTargets(targets []*Record, err error) (int, error) {
	n := len(targets)
	clear(targets)
	tx.targets = targets[:0]
	if err != nil {
		return 0, err
	}
	return n, nil
}

// UpdateWhere updates every matching record with mut(old payload), returning
// the number updated.
func (tx *Tx) UpdateWhere(t *Table, indexOrd int, key uint64, pred Pred, mut func(old []byte) []byte) (int, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if tx.readOnly {
		return 0, ErrReadOnlyTx
	}
	targets, err := tx.collectMatches(t, indexOrd, key, pred)
	if err != nil {
		return 0, err
	}
	for _, r := range targets {
		if err = tx.Update(t, r, mut(r.Payload())); err != nil {
			break
		}
	}
	return tx.putTargets(targets, err)
}

// DeleteWhere deletes every matching record, returning the number deleted.
func (tx *Tx) DeleteWhere(t *Table, indexOrd int, key uint64, pred Pred) (int, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if tx.readOnly {
		return 0, ErrReadOnlyTx
	}
	targets, err := tx.collectMatches(t, indexOrd, key, pred)
	if err != nil {
		return 0, err
	}
	for _, r := range targets {
		if err = tx.Delete(t, r); err != nil {
			break
		}
	}
	return tx.putTargets(targets, err)
}

// Commit writes the redo record, physically removes deleted records (still
// under their exclusive locks), and releases all locks. Transactions that
// wrote nothing — read-only fast-lane transactions always, but also plain
// transactions that only read — skip the end-sequence draw entirely: with no
// redo record to order, the commit point needs no position in the global
// commit order.
func (tx *Tx) Commit() error {
	_, err := tx.CommitTS()
	return err
}

// CommitTS commits like Commit and additionally returns the end sequence
// number drawn for the redo record — the writer's position in the global
// commit order. Transactions that wrote nothing return 0: they draw no end
// sequence, and under strict two-phase locking their serialization point is
// anywhere inside the locked region, so history checkers stamp them
// externally while the locks are still held (see
// internal/core/serializability_test.go).
//
//mvlint:noalloc
func (tx *Tx) CommitTS() (uint64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if len(tx.writes) == 0 && len(tx.undo) == 0 {
		tx.e.fastCommits.Add(1)
		tx.finish(&tx.e.commits)
		return 0, nil
	}
	// The end sequence is drawn while every 2PL lock is still held (they
	// release in finish below): a committer our locks delayed draws
	// strictly after this draw returned, so the commit sequence never
	// reorders across a lock release.
	endTS := tx.e.endSeq.Next()
	if tx.e.cfg.Log != nil && len(tx.writes) > 0 {
		rec := &wal.Record{TxID: tx.id, EndTS: endTS, Ops: tx.writes}
		if err := tx.e.cfg.Log.Append(rec); err != nil {
			// The in-flight commit rolls back, and the log's latched
			// failure flips the engine read-only: a log that cannot accept
			// records cannot back any future acknowledgement either. The
			// end sequence is returned with the error: after a power loss
			// the record may still sit below the surviving torn tail, and
			// crash harnesses need the timestamp to place such an
			// unknown-outcome transaction when recovery proves it durable.
			tx.rollback()
			return endTS, err
		}
	}
	for i := range tx.undo {
		u := &tx.undo[i]
		if u.kind == undoDelete {
			for ord, ix := range u.t.indexes {
				ix.unlink(u.r, u.r.link(ord).key)
			}
		}
	}
	tx.finish(&tx.e.commits)
	return endTS, nil
}

// Abort rolls back all changes and releases all locks.
func (tx *Tx) Abort() error {
	if tx.done {
		return ErrTxDone
	}
	tx.rollback()
	return nil
}

// rollback undoes every change in reverse order, then finishes tx as an
// abort.
func (tx *Tx) rollback() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := &tx.undo[i]
		switch u.kind {
		case undoInsert:
			for ord, ix := range u.t.indexes {
				ix.unlink(u.r, u.r.link(ord).key)
			}
		case undoUpdate:
			u.r.setPayload(u.oldPayload)
			relink(u.t, u.r, u.oldKeys)
		case undoDelete:
			u.r.deleted = false
		}
	}
	tx.finish(&tx.e.aborts)
}
