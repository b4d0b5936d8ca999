package sv

import (
	"errors"

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
	s, x int
}

// rangeHold is one range-lock entry held to commit.
type rangeHold struct {
	m      *svRangeLocks
	lo, hi uint64
	excl   bool
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
	oldKeys    []uint64
}

// Tx is a single-version transaction: strict two-phase locking with
// cursor-stability reads at read committed, in-place updates with undo.
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
	heldRanges []rangeHold
	undo       []undoRec
	writes     []wal.Entry
}

// Begin starts a transaction. Snapshot isolation is not expressible in a
// single-version engine; it is upgraded to repeatable read, which like
// serializable holds every read lock to commit.
func (e *Engine) Begin(level iso.Level) *Tx {
	return &Tx{
		e:     e,
		id:    e.txSeq.Add(1),
		short: level == iso.ReadCommitted,
	}
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
func (e *Engine) BeginReadOnly() *Tx {
	e.roBegins.Add(1)
	return &Tx{e: e, readOnly: true}
}

// ReadOnly reports whether the transaction is a fast-lane reader.
func (tx *Tx) ReadOnly() bool { return tx.readOnly }

// heldScanMax is how many held locks registered looks up by scanning: a
// short transaction re-locks what it touched last (read, then update), and a
// dozen pointer compares beat a map. Past it the lookup goes through heldIdx,
// so a transaction holding n locks costs O(n), not O(n^2) — a 1V checkpoint
// capture holds one per hash bucket.
const heldScanMax = 16

// registered returns tx's entry for l, adding an empty one if tx does not
// hold l yet. The pointer is valid until the next call.
func (tx *Tx) registered(l *keyLock) *heldLock {
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
	tx.held = append(tx.held, heldLock{l: l})
	return &tx.held[n]
}

// lockS acquires and registers a shared lock held to commit.
func (tx *Tx) lockS(l *keyLock) error {
	if err := l.acquireS(tx.id, tx.e.cfg.LockTimeout); err != nil {
		tx.e.timeouts.Add(1)
		return err
	}
	tx.registered(l).s++
	return nil
}

// lockX acquires and registers an exclusive lock held to commit. A
// transaction that already holds shared locks on the same key upgrades.
func (tx *Tx) lockX(l *keyLock) error {
	h := tx.registered(l)
	if err := l.acquireX(tx.id, h.s, tx.e.cfg.LockTimeout); err != nil {
		tx.e.timeouts.Add(1)
		return err
	}
	h.x++
	return nil
}

// lockRange acquires a range lock held to commit on an ordered index.
func (tx *Tx) lockRange(m *svRangeLocks, lo, hi uint64, excl bool) error {
	if err := m.acquire(lo, hi, tx.id, excl, tx.e.cfg.LockTimeout); err != nil {
		tx.e.timeouts.Add(1)
		return err
	}
	tx.heldRanges = append(tx.heldRanges, rangeHold{m, lo, hi, excl})
	return nil
}

func (tx *Tx) releaseAll() {
	for i := range tx.held {
		h := &tx.held[i]
		h.l.releaseBulk(tx.id, h.s, h.x > 0)
	}
	tx.held = tx.held[:0]
	tx.heldIdx = nil
	for i := range tx.heldRanges {
		h := &tx.heldRanges[i]
		h.m.release(h.lo, h.hi, tx.id, h.excl)
	}
	tx.heldRanges = nil
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
		b := ix.bucket(key)
		l := &b.lock
		if short {
			if err := l.acquireS(tx.id, tx.e.cfg.LockTimeout); err != nil {
				tx.e.timeouts.Add(1)
				return err
			}
			defer l.releaseS(tx.id)
		} else {
			if err := tx.lockS(l); err != nil {
				return err
			}
		}
		scanChain(b.head, indexOrd, key, pred, fn)
		return nil
	}
	ix := t.indexes[indexOrd].(*orderedIndex)
	if short {
		if err := ix.rl.acquire(key, key, tx.id, false, tx.e.cfg.LockTimeout); err != nil {
			tx.e.timeouts.Add(1)
			return err
		}
		defer ix.rl.release(key, key, tx.id, false)
	} else {
		if err := tx.lockRange(&ix.rl, key, key, false); err != nil {
			return err
		}
	}
	// Pin the reader epoch across the traversal so the node (and its chain)
	// cannot be reset by the reclaimer while we hold pointers into it.
	slot := ix.ep.Enter()
	defer ix.ep.Exit(slot)
	n := ix.list.Get(key)
	if n == nil {
		return nil
	}
	scanChain(n.V.head, indexOrd, key, pred, fn)
	return nil
}

// scanChain walks one record chain, filtering deleted records, key
// mismatches (hash collisions) and the residual predicate.
func scanChain(head *Record, ord int, key uint64, pred Pred, fn func(*Record) bool) {
	for r := head; r != nil; r = r.next[ord] {
		if r.deleted || r.keys[ord] != key {
			continue
		}
		if pred != nil && !pred(r.payload) {
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
		if err := ix.rl.acquire(lo, hi, tx.id, false, tx.e.cfg.LockTimeout); err != nil {
			tx.e.timeouts.Add(1)
			return err
		}
		defer ix.rl.release(lo, hi, tx.id, false)
	} else {
		if err := tx.lockRange(&ix.rl, lo, hi, false); err != nil {
			return err
		}
	}
	// Pin the reader epoch for the duration of the cursor walk: swept nodes
	// keep their outgoing pointers until quiescence, so a cursor parked on
	// one continues into the live list; the pin is what defers the reset.
	slot := ix.ep.Enter()
	defer ix.ep.Exit(slot)
	for n := ix.list.Seek(lo); n != nil && n.Key() <= hi; n = n.Next() {
		for r := n.V.head; r != nil; r = r.next[indexOrd] {
			if r.deleted {
				continue
			}
			if pred != nil && !pred(r.payload) {
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
		return tx.lockX(&ix.bucket(key).lock)
	case *orderedIndex:
		return tx.lockRange(&ix.rl, key, key, true)
	}
	return ErrConflict // unreachable
}

// Insert creates a record, exclusively locking its key cover in every index
// and linking it. Readers of those covers block until commit.
func (tx *Tx) Insert(t *Table, payload []byte) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.e.degraded.Load() {
		return ErrDegraded
	}
	r := &Record{
		payload: payload,
		keys:    make([]uint64, len(t.indexes)),
		next:    make([]*Record, len(t.indexes)),
	}
	for ord, ix := range t.indexes {
		r.keys[ord] = ix.keyOf(payload)
	}
	for ord, ix := range t.indexes {
		if err := tx.lockKeyX(ix, r.keys[ord]); err != nil {
			return err
		}
	}
	for _, ix := range t.indexes {
		ix.link(r)
	}
	tx.undo = append(tx.undo, undoRec{kind: undoInsert, t: t, r: r, oldKeys: append([]uint64(nil), r.keys...)})
	tx.writes = append(tx.writes, wal.Entry{Table: t.Name, Op: wal.OpInsert, Key: r.keys[0], Payload: payload})
	return nil
}

// lockRecordX exclusively locks every cover of r, verifying that r's
// identity did not change while the locks were being acquired.
func (tx *Tx) lockRecordX(t *Table, r *Record) ([]uint64, error) {
	keys := append([]uint64(nil), r.keys...)
	for ord, ix := range t.indexes {
		if err := tx.lockKeyX(ix, keys[ord]); err != nil {
			return nil, err
		}
	}
	for ord := range t.indexes {
		if r.keys[ord] != keys[ord] {
			return nil, ErrConflict // relocated concurrently; extremely rare
		}
	}
	if r.deleted {
		return nil, ErrConflict
	}
	return keys, nil
}

// Update overwrites r's payload in place, relocating it between chains if an
// index key changed.
func (tx *Tx) Update(t *Table, r *Record, newPayload []byte) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.e.degraded.Load() {
		return ErrDegraded
	}
	oldKeys, err := tx.lockRecordX(t, r)
	if err != nil {
		return err
	}
	newKeys := make([]uint64, len(t.indexes))
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
		oldPayload: r.payload,
		oldKeys:    oldKeys,
	})
	for ord, ix := range t.indexes {
		if newKeys[ord] != oldKeys[ord] {
			ix.unlink(r, oldKeys[ord])
		}
	}
	r.payload = newPayload
	copy(r.keys, newKeys)
	for ord, ix := range t.indexes {
		if newKeys[ord] != oldKeys[ord] {
			ix.link(r)
		}
	}
	tx.writes = append(tx.writes, wal.Entry{Table: t.Name, Op: wal.OpUpdate, Key: newKeys[0], Payload: newPayload})
	return nil
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
	if tx.e.degraded.Load() {
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
		oldPayload: r.payload,
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
	var targets []*Record
	var head *Record
	switch ix := t.indexes[indexOrd].(type) {
	case *hashIndex:
		b := ix.bucket(key)
		if err := tx.lockS(&b.lock); err != nil {
			return nil, err
		}
		head = b.head
	case *orderedIndex:
		if err := tx.lockRange(&ix.rl, key, key, false); err != nil {
			return nil, err
		}
		slot := ix.ep.Enter()
		if n := ix.list.Get(key); n != nil {
			head = n.V.head
		}
		defer ix.ep.Exit(slot)
	}
	for r := head; r != nil; r = r.next[indexOrd] {
		if r.deleted || r.keys[indexOrd] != key {
			continue
		}
		if pred != nil && !pred(r.payload) {
			continue
		}
		targets = append(targets, r)
	}
	return targets, nil
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
		if err := tx.Update(t, r, mut(r.payload)); err != nil {
			return 0, err
		}
	}
	return len(targets), nil
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
		if err := tx.Delete(t, r); err != nil {
			return 0, err
		}
	}
	return len(targets), nil
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
		tx.releaseAll()
		tx.done = true
		tx.e.commits.Add(1)
		tx.e.fastCommits.Add(1)
		tx.e.maybeReclaim()
		return 0, nil
	}
	// The draw goes through the combining funnel while every 2PL lock is
	// still held (they release in releaseAll below): committers whose
	// locked regions are disjoint are serialized by those locks and reach
	// the funnel strictly after the earlier one's draw returned, so sharing
	// a fetch-and-add never reorders the commit sequence across a lock
	// release. NextLocked because of exactly those held locks: the funnel
	// must not yield inside our locked region. See ts.Funnel.
	endTS := tx.e.endFunnel.NextLocked()
	if tx.e.cfg.Log != nil && len(tx.writes) > 0 {
		rec := &wal.Record{TxID: tx.id, EndTS: endTS, Ops: tx.writes}
		if err := tx.e.cfg.Log.Append(rec); err != nil {
			// The in-flight commit rolls back, and the engine flips
			// read-only: a log that cannot accept records cannot back any
			// future acknowledgement either. The end sequence is returned
			// with the error: after a power loss the record may still sit
			// below the surviving torn tail, and crash harnesses need the
			// timestamp to place such an unknown-outcome transaction when
			// recovery proves it durable.
			tx.e.degrade(err)
			tx.rollback()
			return endTS, err
		}
	}
	for i := range tx.undo {
		u := &tx.undo[i]
		if u.kind == undoDelete {
			for ord, ix := range u.t.indexes {
				ix.unlink(u.r, u.r.keys[ord])
			}
		}
	}
	tx.releaseAll()
	tx.done = true
	tx.e.commits.Add(1)
	tx.e.maybeReclaim()
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

func (tx *Tx) rollback() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := &tx.undo[i]
		switch u.kind {
		case undoInsert:
			for ord, ix := range u.t.indexes {
				ix.unlink(u.r, u.r.keys[ord])
			}
		case undoUpdate:
			changed := make([]bool, len(u.t.indexes))
			for ord, ix := range u.t.indexes {
				if u.r.keys[ord] != u.oldKeys[ord] {
					changed[ord] = true
					ix.unlink(u.r, u.r.keys[ord])
				}
			}
			u.r.payload = u.oldPayload
			copy(u.r.keys, u.oldKeys)
			for ord, ix := range u.t.indexes {
				if changed[ord] {
					ix.link(u.r)
				}
			}
		case undoDelete:
			u.r.deleted = false
		}
	}
	tx.releaseAll()
	tx.done = true
	tx.e.aborts.Add(1)
	tx.e.maybeReclaim()
}
