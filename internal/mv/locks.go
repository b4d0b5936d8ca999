package mv

import (
	"repro/internal/field"
	"repro/internal/storage"
	"repro/internal/txn"
)

// acquireReadLock takes a read lock on version v for tx (Section 4.2.1).
// Read locks are only ever taken on latest versions. If v is write locked
// and this is the first read lock, the write locker acquires a wait-for
// dependency: it may not precommit until the lock is released.
func (tx *Tx) acquireReadLock(v *storage.Version) error {
	for {
		w := v.End()
		if field.IsTS(w) {
			if field.TS(w) != field.Infinity {
				// The version was committed-replaced between the visibility
				// check and lock acquisition; it is no longer the latest.
				return ErrReadLockFailed
			}
			if v.CASEnd(w, field.Lock(field.NoWriter, 1, false)) {
				tx.readLocks = append(tx.readLocks, v)
				return nil
			}
			continue
		}
		// Lock word.
		if field.NoMoreReadLocks(w) || field.Readers(w) == field.MaxReadLocks {
			return ErrReadLockFailed
		}
		writer := field.Writer(w)
		if writer != field.NoWriter && writer != tx.T.ID() && field.Readers(w) == 0 {
			// First read lock on a write-locked version: force the writer
			// to wait on V before it can precommit.
			te, ok := tx.e.txns.Lookup(writer)
			if !ok {
				continue // writer finalizing; word about to change
			}
			if te.ID() != writer {
				continue // object recycled: writer terminated; reread
			}
			if te.State() == txn.Aborted {
				// The writer aborted; no dependency needed, the lock word
				// will be reset or stolen. Just take the read lock.
				if v.CASEnd(w, field.WithReaders(w, 1)) {
					tx.readLocks = append(tx.readLocks, v)
					return nil
				}
				continue
			}
			if !te.AddWaitFor() {
				// The writer no longer accepts wait-for dependencies (it is
				// about to precommit): the lock cannot guarantee stability.
				return ErrReadLockFailed
			}
			if v.CASEnd(w, field.WithReaders(w, 1)) {
				tx.readLocks = append(tx.readLocks, v)
				return nil
			}
			// Lost the race; undo the dependency and retry.
			te.ReleaseWaitFor()
			continue
		}
		if v.CASEnd(w, field.WithReaders(w, field.Readers(w)+1)) {
			tx.readLocks = append(tx.readLocks, v)
			return nil
		}
	}
}

// releaseReadLock drops one read lock (Section 4.2.1). Releasing the last
// read lock on a write-locked version atomically sets NoMoreReadLocks — so
// the writer's commit cannot be postponed again — and then releases the
// writer's wait-for dependency.
func (tx *Tx) releaseReadLock(v *storage.Version) {
	for {
		w := v.End()
		if !field.IsLock(w) {
			return // already finalized (defensive; cannot happen while we hold a lock)
		}
		r := field.Readers(w)
		if r <= 0 {
			return // defensive
		}
		if field.HasWriter(w) && r == 1 {
			nw := field.WithNoMore(field.WithReaders(w, 0), true)
			if v.CASEnd(w, nw) {
				if te, ok := tx.e.txns.Lookup(field.Writer(w)); ok {
					te.ReleaseWaitFor()
				}
				return
			}
			continue
		}
		nw := field.WithReaders(w, r-1)
		if !field.HasWriter(nw) && field.Readers(nw) == 0 {
			// Fully unlocked: restore the canonical infinity timestamp.
			// This also clears a stale NoMoreReadLocks flag left behind by
			// an aborted writer, so future read locks are possible again.
			nw = field.FromTS(field.Infinity)
		}
		if v.CASEnd(w, nw) {
			return
		}
	}
}

// releaseAllReadLocks releases every read lock held by tx. Called after
// precommit (the end timestamp must be drawn while the locks are held) and
// on abort.
func (tx *Tx) releaseAllReadLocks() {
	if len(tx.readLocks) == 0 {
		return
	}
	tx.T.PublishReadLocks(nil)
	for _, v := range tx.readLocks {
		tx.releaseReadLock(v)
	}
	clear(tx.readLocks)
	tx.readLocks = tx.readLocks[:0]
}

// releaseSelfWriteReadLocks releases the read locks tx holds on versions tx
// itself write-locked (read-then-update of one row). Called before
// WaitWaitFors: installWriteLock charged tx a wait-for dependency for the
// read locks it found on the version, and when those locks are tx's own the
// dependency can never drain while they are held to precommit — the
// transaction would wait on itself. Stability needs no read lock once tx
// owns the write lock: a competing writer hits ErrWriteConflict, and the
// version's End can only ever become tx's own end timestamp. Read locks on
// versions locked by OTHER writers (or by no writer) stay held through the
// end-timestamp draw. Only a write that found its target read-locked can
// have made such a dependency, so every other commit skips the walk.
func (tx *Tx) releaseSelfWriteReadLocks() {
	if !tx.updatedReadLocked {
		return
	}
	tx.updatedReadLocked = false
	kept := 0
	for _, v := range tx.readLocks {
		w := v.End()
		if field.IsLock(w) && field.Writer(w) == tx.T.ID() {
			tx.releaseReadLock(v)
		} else {
			tx.readLocks[kept] = v
			kept++
		}
	}
	clear(tx.readLocks[kept:])
	tx.readLocks = tx.readLocks[:kept]
}

// installWriteLock atomically stores tx's ID in V's End word, the combined
// "write lock + updater identity" of Section 2.6. It returns whether the
// version was read locked at that instant (the caller then owes itself a
// wait-for dependency) and an error on write-write conflict.
func (tx *Tx) installWriteLock(v *storage.Version) (wasReadLocked bool, err error) {
	for {
		w := v.End()
		if field.IsTS(w) {
			if field.TS(w) != field.Infinity {
				// A committed update already ended this version: it is not
				// the latest.
				return false, ErrWriteConflict
			}
			if v.CASEnd(w, field.Lock(tx.T.ID(), 0, false)) {
				return false, nil
			}
			continue
		}
		writer := field.Writer(w)
		if writer == field.NoWriter {
			// Read locked only. Eager update: allowed, but tx cannot
			// precommit until the read locks drain.
			if v.CASEnd(w, field.WithWriter(w, tx.T.ID())) {
				return field.Readers(w) > 0, nil
			}
			continue
		}
		if writer == tx.T.ID() {
			// Double update of the same old version within one transaction:
			// the correct target is our new version; treat as a conflict.
			return false, ErrWriteConflict
		}
		te, ok := tx.e.txns.Lookup(writer)
		if !ok {
			continue // finalizing; reread
		}
		st := te.State()
		if te.ID() != writer {
			continue // object recycled: writer terminated; reread the word
		}
		switch st {
		case txn.Aborted:
			// The updater aborted: V is still the latest version and its
			// write lock can be stolen (Section 2.6).
			if v.CASEnd(w, field.WithWriter(w, tx.T.ID())) {
				return field.Readers(w) > 0, nil
			}
			continue
		case txn.Terminated:
			continue
		default:
			// Active, Preparing or Committed: a later, not-yet-finalized
			// version exists. First-writer-wins: tx must abort.
			return false, ErrWriteConflict
		}
	}
}

// lockBucket takes a bucket lock for a serializable pessimistic scan
// (Section 4.1.2). Locks are idempotent per transaction.
func (tx *Tx) lockBucket(b *storage.Bucket) {
	for _, held := range tx.bucketLocks {
		if held == b {
			return
		}
	}
	tx.e.blt.Acquire(b, tx.T.ID())
	tx.bucketLocks = append(tx.bucketLocks, b)
}

// releaseBucketLocks releases all bucket locks at the end of normal
// processing.
func (tx *Tx) releaseBucketLocks() {
	for _, b := range tx.bucketLocks {
		tx.e.blt.Release(b, tx.T.ID())
	}
	clear(tx.bucketLocks)
	tx.bucketLocks = tx.bucketLocks[:0]
}

// lockRange takes a shared range lock on an ordered index for a
// serializable pessimistic scan — the predicate-shaped analogue of
// lockBucket. Locks covered by an already-held range are skipped. MV/L
// holds only shared entries, which never conflict, so Acquire never waits.
func (tx *Tx) lockRange(rl *storage.RangeLockTable, lo, hi uint64) {
	if storage.RangeCovered(tx.rangeLocks, rl, lo, hi, false) {
		return
	}
	rl.Acquire(lo, hi, tx.T.ID(), false, 0)
	tx.rangeLocks = append(tx.rangeLocks, storage.RangeHold{Table: rl, Lo: lo, Hi: hi})
}

// releaseRangeLocks releases all range locks at the end of normal
// processing.
func (tx *Tx) releaseRangeLocks() {
	for _, h := range tx.rangeLocks {
		h.Table.Release(h.Lo, h.Hi, tx.T.ID(), h.Excl)
	}
	clear(tx.rangeLocks)
	tx.rangeLocks = tx.rangeLocks[:0]
}

// insertDeps is called when tx links a new version with the given key into
// index ix, or ends a version whose key leaves it (Delete, key-changing
// Update): if the key is covered by serializable scan locks — bucket locks
// on a hash index, range locks on an ordered one — tx takes a wait-for
// dependency on each holder: it may write eagerly, but cannot precommit
// before the scanners complete (Section 4.2.2).
func (tx *Tx) insertDeps(ix storage.Index, key uint64) error {
	if rl := ix.RangeLocks(); rl != nil {
		if rl.Active() == 0 {
			return nil
		}
		return tx.holderDeps(rl.AppendHolders(tx.holders[:0], key))
	}
	b := ix.Lookup(key)
	if b.LockCount() == 0 {
		return nil
	}
	return tx.holderDeps(tx.e.blt.AppendHolders(tx.holders[:0], b))
}

// holderDeps installs one wait-for dependency per scan-lock holder; holders
// must alias tx.holders (the reusable scratch buffer).
func (tx *Tx) holderDeps(holders []uint64) error {
	tx.holders = holders
	for _, hid := range tx.holders {
		if hid == tx.T.ID() {
			continue // our own scan lock; our inserts are visible to us
		}
		holder, ok := tx.e.txns.Lookup(hid)
		if !ok {
			continue // holder finished
		}
		if holder.ID() != hid {
			continue // object recycled: holder finished
		}
		if !tx.T.AddWaitFor() {
			return ErrWaitForRefused
		}
		if !holder.RegisterWaiter(tx.T.ID()) {
			// The holder already released its outgoing dependencies (it has
			// precommitted); it no longer needs phantom protection.
			tx.T.ReleaseWaitFor()
		}
	}
	return nil
}

// imposePhantomDep is called when a serializable pessimistic scan encounters
// an invisible version created by a still-active transaction TU: if TU
// commits before tx completes, the version becomes a phantom. tx registers a
// wait-for dependency on TU's behalf — TU may not precommit until tx has
// completed (Section 4.2.2).
func (tx *Tx) imposePhantomDep(tu *txn.Txn) error {
	if tu.ID() == tx.T.ID() {
		return nil
	}
	if !tu.AddWaitFor() {
		// TU is already precommitting; we cannot delay it, so we cannot
		// guarantee phantom avoidance.
		return ErrPhantomRisk
	}
	if !tx.T.RegisterWaiter(tu.ID()) {
		tu.ReleaseWaitFor() // we are past release (cannot happen while active)
	}
	return nil
}
