package mv

import (
	"runtime"

	"repro/internal/field"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Pred is a residual predicate evaluated on candidate payloads during an
// index scan (the Pr of Section 3.1). A nil Pred matches everything. The
// payload must not be modified or retained.
type Pred func(payload []byte) bool

// scanRecord remembers enough about a scan to repeat it during validation
// (the ScanSet of Section 3). Point scans store lo == hi == key; range scans
// on ordered indexes store the inclusive bounds.
type scanRecord struct {
	table  *storage.Table
	ix     storage.Index
	lo, hi uint64
	pred   Pred
}

// writeRec is one WriteSet entry: pointers to the old and new versions of an
// update, the old version of a delete, or the new version of an insert.
type writeRec struct {
	table *storage.Table
	old   *storage.Version
	newV  *storage.Version
	op    wal.Op
	key   uint64 // primary-index key, for the log record
}

// Tx is a multiversion transaction. It is owned by a single goroutine; other
// transactions interact with it only through its embedded txn.Txn.
//
// Tx objects are pooled by the engine: Begin may return a recycled object,
// and a Tx must not be touched after Commit or Abort returns. All scratch
// slices below keep their backing arrays across recycles, so a steady-state
// transaction allocates nothing.
type Tx struct {
	// T is the scheme-independent transaction object (states, timestamps,
	// dependencies). Exposed for tests and the facade.
	T *txn.Txn

	e      *Engine
	scheme Scheme
	iso    Isolation
	done   bool

	// readOnly marks a snapshot reader from BeginReadOnly: every mutation
	// fails with ErrReadOnlyTx. A fast-lane reader has ID txn.Anonymous and
	// no table entry; the pin-overflow fallback is registered like any
	// Begin. Every other transaction enters the table at Begin, so
	// T.ID() != txn.Anonymous is exactly "in the transaction table".
	readOnly bool
	// pin is the reader-pin slot protecting a fast-lane reader's snapshot
	// from the garbage collector, or -1.
	pin int

	readSet     []*storage.Version
	scanSet     []scanRecord
	writeSet    []writeRec
	bucketLocks []*storage.Bucket
	rangeLocks  []storage.RangeHold

	// walRec is the reusable redo record; wal.Append encodes it before
	// returning, so the record and its Ops never escape the commit call.
	walRec wal.Record
	// holders is the scratch buffer for bucket-lock holder snapshots.
	holders []uint64

	// readLocks lists the versions tx holds read locks on. Only the owner
	// touches it; CommitTS publishes it to T for the deadlock detector just
	// before waiting on wait-for dependencies.
	readLocks []*storage.Version
	// updatedReadLocked is set when an Update or Delete found its target
	// read-locked: some of those locks may be tx's own, which
	// releaseSelfWriteReadLocks must drop before tx waits.
	updatedReadLocked bool
}

// Scheme returns the transaction's concurrency control scheme.
func (tx *Tx) Scheme() Scheme { return tx.scheme }

// Iso returns the transaction's isolation level.
func (tx *Tx) Iso() Isolation { return tx.iso }

// ReadOnly reports whether the transaction is a read-only snapshot reader.
func (tx *Tx) ReadOnly() bool { return tx.readOnly }

// readTime returns the logical read time for the next read (Sections 3.1,
// 3.4, 4.3.1): optimistic transactions read as of their begin time except at
// read committed; pessimistic transactions read the latest version (current
// time) except under snapshot isolation.
func (tx *Tx) readTime() uint64 {
	if tx.scheme == Optimistic {
		if tx.iso == ReadCommitted {
			return tx.e.oracle.Current()
		}
		return tx.T.Begin()
	}
	if tx.iso == SnapshotIsolation {
		return tx.T.Begin()
	}
	return tx.e.oracle.Current()
}

func (tx *Tx) checkUsable() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.T.AbortRequested() {
		return ErrAborted
	}
	return nil
}

// Scan iterates the versions in index indexOrd matching key and pred that
// are visible to tx, applying the isolation level's bookkeeping: optimistic
// serializable scans are recorded for phantom rescans; pessimistic
// serializable scans bucket-lock, and that lock also keeps the rows read
// stable; pessimistic repeatable-read reads are read-locked and optimistic
// ones read-set tracked. fn returning false stops the scan. If Scan returns
// a non-nil error the transaction must be aborted.
func (tx *Tx) Scan(t *storage.Table, indexOrd int, key uint64, pred Pred, fn func(v *storage.Version) bool) error {
	return tx.scan(t, indexOrd, key, pred, false, func(v *storage.Version) (bool, error) {
		return fn(v), nil
	})
}

func (tx *Tx) scan(t *storage.Table, indexOrd int, key uint64, pred Pred, forUpdate bool, fn func(*storage.Version) (bool, error)) error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	ix := t.Index(indexOrd)
	ser := tx.iso == Serializable
	if ser {
		if tx.scheme == Optimistic {
			// Register the scan so it can be repeated during validation
			// (start-scan step of Section 3.1).
			tx.scanSet = append(tx.scanSet, scanRecord{t, ix, key, key, pred})
		} else if rl := ix.RangeLocks(); rl != nil {
			// An ordered index cannot bucket-lock a key that was never
			// inserted (there is no bucket); point scans lock the
			// degenerate range [key, key] for phantom protection instead.
			tx.lockRange(rl, key, key)
		} else {
			// Bucket lock for phantom protection (Section 4.1.2).
			tx.lockBucket(ix.Lookup(key))
		}
	}
	rt := tx.readTime()
	b := ix.Lookup(key)
	if b == nil {
		return nil // ordered index, key never inserted
	}
	match := storage.MatchKey(ix, key)
	for v := b.Head(); v != nil; v = v.Next(indexOrd) {
		if !match.Holds(v) {
			continue
		}
		if pred != nil && !pred(v.Payload()) {
			continue
		}
		cont, err := tx.visit(v, rt, ser, forUpdate, fn)
		if err != nil {
			return err
		}
		if !cont {
			break
		}
	}
	return nil
}

// ScanRange iterates the versions with index keys in [lo, hi] (inclusive)
// visible to tx, in ascending key order, applying the same isolation
// bookkeeping as Scan: optimistic serializable range scans are recorded and
// repeated at validation (phantom rescan); pessimistic serializable scans
// take a range lock that forces inserters into the range, and writers ending
// a version in it, to wait; repeatable read stabilizes every row read. The
// index must be Ordered or storage.ErrUnordered is returned. fn returning
// false stops the scan; a non-nil error means the transaction must be
// aborted.
func (tx *Tx) ScanRange(t *storage.Table, indexOrd int, lo, hi uint64, pred Pred, fn func(v *storage.Version) bool) error {
	return tx.scanRange(t, indexOrd, lo, hi, pred, false, func(v *storage.Version) (bool, error) {
		return fn(v), nil
	})
}

func (tx *Tx) scanRange(t *storage.Table, indexOrd int, lo, hi uint64, pred Pred, forUpdate bool, fn func(*storage.Version) (bool, error)) error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	ix := t.Index(indexOrd)
	if !ix.Ordered() {
		return storage.ErrUnordered
	}
	if lo > hi {
		return nil
	}
	ser := tx.iso == Serializable
	if ser {
		if tx.scheme == Optimistic {
			tx.scanSet = append(tx.scanSet, scanRecord{t, ix, lo, hi, pred})
		} else {
			tx.lockRange(ix.RangeLocks(), lo, hi)
		}
	}
	rt := tx.readTime()
	cur, err := ix.ScanRange(lo, hi)
	if err != nil {
		return err
	}
	for {
		b, _, ok := cur.Next()
		if !ok {
			return nil
		}
		for v := b.Head(); v != nil; v = v.Next(indexOrd) {
			if pred != nil && !pred(v.Payload()) {
				continue
			}
			cont, err := tx.visit(v, rt, ser, forUpdate, fn)
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
		}
	}
}

// visit applies the visibility test and per-row isolation bookkeeping to one
// candidate version (shared by point and range scans): invisible versions
// feed the pessimistic phantom guard; visible ones are read-set tracked
// (optimistic) or stabilized (pessimistic) at repeatable read and above,
// then handed to fn. The returned bool is whether the scan should continue.
func (tx *Tx) visit(v *storage.Version, rt uint64, ser, forUpdate bool, fn func(*storage.Version) (bool, error)) (bool, error) {
	if !tx.isVisible(v, rt) {
		if ser && tx.scheme == Pessimistic {
			// A version satisfying the predicate but not visible may be an
			// uncommitted insert: a potential phantom (Section 4.2.2).
			if err := tx.phantomGuard(v, rt); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	if !forUpdate && (tx.iso == RepeatableRead || ser) {
		if tx.scheme == Optimistic {
			tx.readSet = append(tx.readSet, v)
		} else if err := tx.stabilize(v, ser); err != nil {
			tx.e.lockFailures.Add(1)
			return false, err
		}
	}
	return fn(v)
}

// stabilize keeps a pessimistic read of the visible version v valid up to
// tx's end timestamp.
//
// Only latest versions need it; older versions have immutable valid
// intervals (Section 4.1.1). A version visible at rt yet already
// committed-replaced was replaced by a writer that drew its end timestamp
// after our read time, so the observation is stale as of our own (still
// larger) end timestamp and nothing can stabilize it: tx aborts with
// ErrReadLockFailed, the "replaced between visibility check and lock
// acquisition" outcome of acquireReadLock. (Snapshot-isolation reads at the
// begin timestamp never get here: they need no stability at the end.)
//
// A serializable scan already holds a bucket or range lock covering v's key,
// taken before this load of v's End word. Every writer that ends a version
// under a scan lock (Update, Delete) checks the scan locks after installing
// its write lock and waits for the holders, as an inserter does (insertDeps).
// A writer that locks v after this load therefore precommits after tx, so
// the scan lock stabilizes the read and no read lock is taken. A writer that
// locked v before the load may have missed our scan lock, so tx read-locks v,
// which charges that writer a wait-for dependency (Section 4.2.1).
// Repeatable read holds no scan lock and read-locks every latest version.
func (tx *Tx) stabilize(v *storage.Version, ser bool) error {
	w := v.End()
	if field.IsTS(w) && field.TS(w) != field.Infinity {
		return ErrReadLockFailed
	}
	otherWriter := field.IsLock(w) && field.HasWriter(w) && field.Writer(w) != tx.T.ID()
	if ser && !otherWriter {
		return nil
	}
	return tx.acquireReadLock(v)
}

// phantomGuard handles an invisible, predicate-matching version during a
// serializable pessimistic scan. If the version is an uncommitted insert by
// an active transaction TU, tx imposes a wait-for dependency so TU cannot
// commit (and create a phantom) before tx completes. If TU is already
// committing, the phantom can no longer be prevented and tx aborts.
func (tx *Tx) phantomGuard(v *storage.Version, rt uint64) error {
	for {
		bw := v.Begin()
		var effBegin uint64
		if field.IsTS(bw) {
			effBegin = field.TS(bw)
			if effBegin == field.Infinity {
				return nil // aborted garbage
			}
		} else {
			tbID := field.TxID(bw)
			if tbID == tx.T.ID() {
				return nil // our own insert
			}
			tb, ok := tx.e.txns.Lookup(tbID)
			if !ok {
				continue // finalizing; reread
			}
			st := tb.State()
			tbEnd := tb.End()
			if tb.ID() != tbID {
				continue // object recycled: TB terminated; reread the word
			}
			switch st {
			case txn.Active:
				return tx.imposePhantomDep(tb)
			case txn.Preparing, txn.Committed:
				effBegin = tbEnd
				if effBegin == 0 {
					continue
				}
			case txn.Aborted:
				return nil
			default:
				continue
			}
		}
		if effBegin <= rt {
			// The version began at or before our read time: it is invisible
			// because it already ended, which will remain true at our end
			// timestamp. Not a phantom.
			return nil
		}
		// The version begins after our read time. If it has already ended
		// with a committed timestamp it cannot be visible at our (larger)
		// end timestamp either; otherwise it would surface as a phantom and
		// we cannot delay its creator any more.
		ew := v.End()
		if field.IsTS(ew) && field.TS(ew) != field.Infinity {
			return nil
		}
		return ErrPhantomRisk
	}
}

// Lookup returns the first visible version matching key and pred in index
// indexOrd, applying the same bookkeeping as Scan.
func (tx *Tx) Lookup(t *storage.Table, indexOrd int, key uint64, pred Pred) (*storage.Version, bool, error) {
	var found *storage.Version
	err := tx.Scan(t, indexOrd, key, pred, func(v *storage.Version) bool {
		found = v
		return false
	})
	if err != nil {
		return nil, false, err
	}
	return found, found != nil, nil
}

// Insert creates a brand-new record version and links it into every index of
// the table. The version becomes visible to others only when tx commits. The
// engine keeps payload (above storage.InlinePayload bytes, by reference): the
// caller must not modify it after the call.
func (tx *Tx) Insert(t *storage.Table, payload []byte) error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.e.cfg.Log.Failed() {
		return ErrDegraded
	}
	if len(payload) > storage.MaxPayload {
		return ErrPayloadTooLarge
	}
	v := tx.e.vpool.Get(payload, t.NumIndexes(), field.FromTxID(tx.T.ID()), infinityWord)
	t.Insert(v)
	tx.writeSet = append(tx.writeSet, writeRec{t, nil, v, wal.OpInsert, v.Key(0)})
	// Primary-key uniqueness. The check runs AFTER the version is linked,
	// for the same symmetry argument as the scan-lock check below: two
	// concurrent inserters of one key each link first, so at least one of
	// them finds the other's version when it checks. Checking before
	// linking leaves an interleaving — check, check, link, link — in which
	// both commit and the key has two latest versions forever (the churn
	// suites catch this as a row visible twice in one snapshot scan). A
	// failed check dooms the transaction: the version is already linked and
	// staged.
	if err := tx.insertUniqueCheck(t, v); err != nil {
		tx.T.RequestAbort()
		return err
	}
	// Inserting under a serializable scan lock (bucket or range) is allowed,
	// but then tx cannot precommit until the lock holders have completed
	// (Section 4.2.2). This applies to optimistic transactions too: honoring
	// scan locks is what lets the two schemes coexist (Section 4.5).
	//
	// The lock check runs AFTER the version is linked: a concurrent
	// serializable scanner either finds our version (and delays us through
	// phantomGuard) or completed its lock acquisition before our check and
	// we find the lock here. Checking before linking leaves an interleaving
	// — check, scanner locks and scans, link — in which neither side sees
	// the other and the scanner's phantom protection silently fails. A
	// failed check dooms the transaction (the version is already linked and
	// staged, so committing anyway would apply a write the API reported as
	// failed); abort postprocessing makes the linked version garbage.
	for ord := 0; ord < t.NumIndexes(); ord++ {
		ix := t.Index(ord)
		if err := tx.insertDeps(ix, storage.KeyOf(ix, v)); err != nil {
			tx.T.RequestAbort()
			return err
		}
	}
	return nil
}

// insertUniqueCheck scans the primary-index chain of self's key for another
// version that is — or may yet become — the latest: a committed live
// version (the key visibly exists), a committed version whose delete or
// update is still in flight or rolled back (if the ender aborts the version
// stays latest), or another transaction's in-flight insert (first writer
// wins; Section 2.6's uniqueness rule). Versions the transaction itself is
// ending are skipped: a delete-then-reinsert of one key inside one
// transaction is legal, and if the transaction aborts its insert vanishes
// with it. Words naming transactions in flux are reread, as in
// checkVisibility.
func (tx *Tx) insertUniqueCheck(t *storage.Table, self *storage.Version) error {
	ix := t.Index(0)
	key := self.Key(0)
	match := storage.MatchKey(ix, key)
	for v := ix.Lookup(key).Head(); v != nil; v = v.Next(0) {
		if v == self || !match.Holds(v) {
			continue
		}
		conflict, err := tx.versionMayStayLatest(v)
		if err != nil {
			return err
		}
		if conflict {
			return ErrDuplicateKey
		}
	}
	return nil
}

// versionMayStayLatest classifies one existing version for
// insertUniqueCheck.
func (tx *Tx) versionMayStayLatest(v *storage.Version) (bool, error) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%64 == 0 {
			runtime.Gosched()
		}
		bw := v.Begin()
		if !field.IsTS(bw) {
			// Uncommitted (or finalizing) creation.
			creator := field.TxID(bw)
			if creator == tx.T.ID() {
				// Our own earlier insert in this transaction: a duplicate
				// unless we re-deleted it (its End then carries our write
				// lock).
				ew := v.End()
				if field.IsTS(ew) {
					return field.TS(ew) == field.Infinity, nil
				}
				return !field.HasWriter(ew), nil
			}
			tb, ok := tx.e.txns.Lookup(creator)
			if !ok {
				continue // finalizing; reread
			}
			st := tb.State()
			if tb.ID() != creator {
				continue // object recycled; reread
			}
			switch st {
			case txn.Aborted:
				return false, nil // garbage version
			case txn.Active, txn.Preparing, txn.Committed:
				// A concurrent insert of the same key that may (or did)
				// commit: the earlier writer wins.
				return true, nil
			default: // Terminated
				continue
			}
		}
		if field.TS(bw) == field.Infinity {
			return false, nil // aborted insert: garbage awaiting collection
		}
		// Committed creation; the End word decides whether it is still (or
		// may remain) the latest.
		ew := v.End()
		if field.IsTS(ew) {
			return field.TS(ew) == field.Infinity, nil
		}
		if !field.HasWriter(ew) {
			return true, nil // read locks only: a live latest version
		}
		ender := field.Writer(ew)
		if ender == tx.T.ID() {
			return false, nil // we are deleting/updating it ourselves
		}
		te, ok := tx.e.txns.Lookup(ender)
		if !ok {
			continue // finalizing; reread
		}
		st := te.State()
		tstamp := te.End()
		if te.ID() != ender {
			continue // object recycled; reread
		}
		switch st {
		case txn.Committed:
			if tstamp == 0 {
				continue
			}
			return false, nil // the delete/update committed: version is dead
		case txn.Aborted:
			return true, nil // ender rolled back: version stays latest
		case txn.Active, txn.Preparing:
			// In-flight delete/update: if it aborts the version stays
			// latest, so the insert cannot proceed safely.
			return true, nil
		default: // Terminated
			continue
		}
	}
}

// Update replaces old (a version obtained from Lookup/Scan in this
// transaction) with a new version carrying newPayload. On a write-write
// conflict the first-writer-wins rule applies and ErrWriteConflict is
// returned; the transaction must then abort. The engine keeps newPayload, as
// Insert keeps payload: the caller must not modify it after the call.
func (tx *Tx) Update(t *storage.Table, old *storage.Version, newPayload []byte) error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.e.cfg.Log.Failed() {
		return ErrDegraded
	}
	if len(newPayload) > storage.MaxPayload {
		return ErrPayloadTooLarge
	}
	wasReadLocked, err := tx.installWriteLock(old)
	if err != nil {
		tx.e.writeConflicts.Add(1)
		return err
	}
	if wasReadLocked {
		// Eager update of a read-locked version: tx waits (at precommit)
		// until all read locks on the version are released (Section 4.2.1).
		tx.T.AddWaitFor()
		tx.updatedReadLocked = true
	}
	nv := tx.e.vpool.Get(newPayload, t.NumIndexes(), field.FromTxID(tx.T.ID()), infinityWord)
	t.Insert(nv)
	tx.writeSet = append(tx.writeSet, writeRec{t, old, nv, wal.OpUpdate, nv.Key(0)})
	// Scan-lock check after linking, for the same reason as Insert: the
	// new version must be reachable before we decide no scanner needs a
	// wait-for dependency from us. A key the update moves away is checked
	// too: serializable scans of the old key rely on their scan lock, not a
	// read lock, to keep the old version stable (stabilize). An unchanged
	// key is covered by the new version's check. Failure dooms the
	// transaction — the write is already staged.
	for ord := 0; ord < t.NumIndexes(); ord++ {
		ix := t.Index(ord)
		key, oldKey := storage.KeyOf(ix, nv), storage.KeyOf(ix, old)
		err := tx.insertDeps(ix, key)
		if err == nil && oldKey != key {
			err = tx.insertDeps(ix, oldKey)
		}
		if err != nil {
			tx.T.RequestAbort()
			return err
		}
	}
	return nil
}

// Delete removes the record whose latest version is old: an update that
// creates no new version (Section 3.1).
func (tx *Tx) Delete(t *storage.Table, old *storage.Version) error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	if tx.readOnly {
		return ErrReadOnlyTx
	}
	if tx.e.cfg.Log.Failed() {
		return ErrDegraded
	}
	wasReadLocked, err := tx.installWriteLock(old)
	if err != nil {
		tx.e.writeConflicts.Add(1)
		return err
	}
	if wasReadLocked {
		tx.T.AddWaitFor()
		tx.updatedReadLocked = true
	}
	tx.writeSet = append(tx.writeSet, writeRec{t, old, nil, wal.OpDelete, old.Key(0)})
	// Every key of the deleted version leaves its index: a serializable scan
	// lock on any of them makes tx wait for the holder, as an insert would.
	// The check follows the write lock for the same reason Insert's follows
	// linking (see stabilize).
	for ord := 0; ord < t.NumIndexes(); ord++ {
		ix := t.Index(ord)
		if err := tx.insertDeps(ix, storage.KeyOf(ix, old)); err != nil {
			tx.T.RequestAbort()
			return err
		}
	}
	return nil
}

// UpdateWhere scans index indexOrd for visible versions matching key and
// pred and replaces each with mut(old payload). It returns the number of
// rows updated. Update-intent scans take no read locks and record no reads:
// the write lock itself stabilizes the version (Section 3.1's
// check-updatability path).
func (tx *Tx) UpdateWhere(t *storage.Table, indexOrd int, key uint64, pred Pred, mut func(old []byte) []byte) (int, error) {
	n := 0
	err := tx.scan(t, indexOrd, key, pred, true, func(v *storage.Version) (bool, error) {
		if err := tx.Update(t, v, mut(v.Payload())); err != nil {
			return false, err
		}
		n++
		return true, nil
	})
	return n, err
}

// DeleteWhere scans index indexOrd for visible versions matching key and
// pred and deletes each. It returns the number of rows deleted.
func (tx *Tx) DeleteWhere(t *storage.Table, indexOrd int, key uint64, pred Pred) (int, error) {
	n := 0
	err := tx.scan(t, indexOrd, key, pred, true, func(v *storage.Version) (bool, error) {
		if err := tx.Delete(t, v); err != nil {
			return false, err
		}
		n++
		return true, nil
	})
	return n, err
}
