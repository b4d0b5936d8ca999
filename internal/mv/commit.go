package mv

import (
	"repro/internal/field"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Commit drives the transaction through the end of normal processing, the
// preparation phase, and postprocessing (Sections 2.4, 3.2-3.3, 4.3).
//
// Pessimistic steps: wait for incoming wait-for dependencies, precommit,
// then release read, bucket and range locks (the end timestamp must be
// drawn while the locks are still held — see the ordering comment below).
// Optimistic steps: validate reads and scans after precommit. Both: wait
// for commit dependencies, write the redo log record, switch to Committed,
// propagate the end timestamp into the version words, report to dependents,
// and hand old versions to the garbage collector.
//
// A non-nil error means the transaction aborted; the abort has already been
// fully processed.
func (tx *Tx) Commit() error {
	_, err := tx.CommitTS()
	return err
}

// CommitTS commits like Commit and additionally returns the transaction's
// end timestamp — its serialization point, the value history checkers
// replay in (see internal/check). The timestamp is captured inside the
// commit itself because the Tx and its txn.Txn are recycled objects:
// reading T.End() after Commit returns races with the pool handing the
// object to another goroutine's Begin. A zero timestamp with a nil error
// is a fast commit — the transaction wrote nothing, held no locks and
// needed no validation, so its commit point is unordered with respect to
// every other transaction (fastCommittable).
//
//mvlint:noalloc
func (tx *Tx) CommitTS() (uint64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if tx.fastCommittable() {
		return 0, tx.commitFast()
	}

	if tx.T.AbortRequested() {
		tx.e.cascadingAborts.Add(1)
		tx.abortInternal()
		return 0, ErrAborted
	}

	// Drop read locks on our own updated versions first — they fund a
	// wait-for dependency on ourselves that could never drain below.
	tx.releaseSelfWriteReadLocks()

	// Wait until incoming wait-for dependencies drain; this also flips
	// NoMoreWaitFors so no new ones can be installed. The deadlock detector
	// may break this wait by setting AbortNow. Read, bucket and range locks
	// are still held here: a blocked holder is a detector node, its waiters
	// have explicit edges, and the read-lock list, published here and left
	// untouched until releaseAllReadLocks withdraws it, contributes the
	// implicit edges, so any cycle this creates is found and broken.
	if len(tx.readLocks) > 0 {
		tx.T.PublishReadLocks(tx.readLocks)
	}
	if err := tx.T.WaitWaitFors(); err != nil {
		tx.e.cascadingAborts.Add(1)
		tx.abortInternal()
		return 0, ErrAborted
	}

	// Precommit: acquire the end timestamp and enter the Preparing state.
	// The draw is one fetch-and-add on the oracle; it never yields, so
	// pessimistic committers take it while still holding their read, bucket
	// and range locks (see the release below).
	// The state flip precedes the draw, and the order is load-bearing. The
	// visibility code treats a writer observed Active as "its end timestamp,
	// whenever it is drawn, will exceed my read time" — true only if the
	// writer could not have drawn an end timestamp yet. Flipping to
	// Preparing first makes the observation sound: a validator that catches
	// us Active knows our draw is entirely in its future (and therefore
	// larger than its own, already-drawn timestamp); one that catches us
	// Preparing with no end yet published simply rereads until the store
	// below lands. The old order (draw, then flip) left a window where a
	// concurrent serializable validator saw state Active on an inserter
	// already holding a smaller end timestamp, concluded "no phantom
	// possible", and committed a scan that missed the insert — a phantom in
	// end-timestamp order that TestHistorySerializableMultiCore catches at
	// GOMAXPROCS >= 4.
	tx.T.SetState(txn.Preparing)
	end := tx.e.oracle.Next()
	tx.T.SetEnd(end)

	// End of normal processing: release read locks, bucket locks and range
	// locks — strictly AFTER the end timestamp draw. The order is
	// load-bearing for "serializable in end-timestamp order": every
	// transaction our locks delayed (an eager updater of a version we
	// read-locked; an inserter, updater or deleter of a key in a range or
	// bucket we scan-locked) acquires its end timestamp only after its wait
	// drains, and the wait drains only here, so its end timestamp exceeds
	// ours and our reads stay valid as of our own end. Releasing before the
	// draw (the previous order) left a window in which the delayed writer
	// won the oracle race and serialized BEFORE the scan it was delayed by —
	// a phantom in commit order that the range-aware history checker
	// (check.ValidateIndexed, TestRangeHistorySerializable) detects.
	// Purely optimistic transactions hold no locks.
	tx.releaseAllReadLocks()
	tx.releaseBucketLocks()
	tx.releaseRangeLocks()

	// Release outgoing wait-for dependencies: transactions that wrote keys
	// under our scan locks (or whose commits we delayed for phantom
	// protection) may now precommit (Section 4.2.2).
	tx.T.ReleaseWaiters(tx.e.txns)

	// Preparation phase. Pessimistic transactions need no validation —
	// that is taken care of by locks (Section 4.3.2).
	if tx.scheme == Optimistic {
		if err := tx.validate(end); err != nil {
			tx.e.validationFails.Add(1)
			tx.abortInternal()
			return 0, err
		}
	}

	// Wait for outstanding commit dependencies (often already resolved).
	if err := tx.T.WaitCommitDeps(); err != nil {
		tx.e.cascadingAborts.Add(1)
		tx.abortInternal()
		return 0, ErrAborted
	}

	// Write the redo record. Commit ordering is determined by end
	// timestamps carried in the records (Section 3.2). The record and its
	// entries are owned by the Tx and reused across recycles: Append encodes
	// them before returning, so nothing escapes.
	if tx.e.cfg.Log != nil && len(tx.writeSet) > 0 {
		rec := &tx.walRec
		rec.TxID = tx.T.ID()
		rec.EndTS = end
		rec.Ops = rec.Ops[:0]
		for i := range tx.writeSet {
			wr := &tx.writeSet[i]
			e := wal.Entry{Table: wr.table.Name, Op: wr.op, Key: wr.key}
			if wr.newV != nil {
				e.Payload = wr.newV.Payload()
			}
			rec.Ops = append(rec.Ops, e)
		}
		if err := tx.e.cfg.Log.Append(rec); err != nil {
			// The in-flight commit fails, and the log's latched failure
			// flips the engine read-only: a log that cannot accept records
			// cannot back any future acknowledgement either. The end
			// timestamp travels with the error: after a power loss the
			// record may still sit below the surviving torn tail, and crash
			// harnesses need the timestamp to place such an unknown-outcome
			// transaction when recovery proves it durable.
			tx.abortInternal()
			return end, err
		}
	}

	// The commit point: updates become visible to other transactions when
	// the state changes to Committed (Section 3).
	tx.T.SetState(txn.Committed)

	// Postprocessing: propagate the end timestamp into the Begin fields of
	// new versions and the End fields of old versions (Section 3.3).
	//mvlint:ignore noalloc panic-path constant from inlined field.FromTS; only materializes if the 63-bit timestamp invariant is already broken
	endWord := field.FromTS(end)
	for i := range tx.writeSet {
		wr := &tx.writeSet[i]
		if wr.newV != nil {
			wr.newV.SetBegin(endWord)
		}
		if wr.old != nil {
			tx.finalizeEnd(wr.old, endWord)
		}
	}

	// Report to dependents, then leave the transaction table. (A fast-lane
	// reader, the one transaction with no table entry, always commits
	// through commitFast.)
	tx.T.ResolveDependents(true, tx.e.txns)
	tx.T.SetState(txn.Terminated)
	tx.e.txns.Remove(tx.T.ID())

	// Old versions are now superseded; assign them to the garbage
	// collector.
	for i := range tx.writeSet {
		wr := &tx.writeSet[i]
		if wr.old != nil {
			tx.e.gc.Retire(wr.table, wr.old)
		}
	}

	tx.done = true
	tx.e.commits.Add(1)
	tx.e.finishTx(tx)
	return end, nil
}

// fastCommittable reports whether the transaction can commit without
// drawing an end timestamp. A transaction that wrote nothing, holds no read
// or bucket locks, and needs no validation never publishes an end timestamp
// anywhere: no version word names it, no bucket-lock holder list contains
// it, and it can receive neither wait-for dependencies nor dependents (both
// require its ID to have been published). Its commit point is therefore
// unordered with respect to every other transaction, and the oracle draw —
// the paper's single shared critical section — can be skipped entirely.
//
// Read-only fast-lane transactions always qualify (they cannot write or take
// locks); so do read-committed/snapshot read transactions from Begin.
// Optimistic repeatable-read/serializable readers do not: validation
// compares against an end timestamp (Section 3.2).
func (tx *Tx) fastCommittable() bool {
	if len(tx.writeSet) > 0 || len(tx.readLocks) > 0 || len(tx.bucketLocks) > 0 || len(tx.rangeLocks) > 0 {
		return false
	}
	if tx.scheme == Optimistic && (tx.iso == RepeatableRead || tx.iso == Serializable) {
		return false
	}
	return true
}

// commitFast commits a transaction that fastCommittable approved: no end
// timestamp, no preparation phase, no postprocessing. Outstanding commit
// dependencies from speculative reads are still honored.
//
//mvlint:noalloc
func (tx *Tx) commitFast() error {
	if tx.T.AbortRequested() {
		tx.e.cascadingAborts.Add(1)
		tx.abortInternal()
		return ErrAborted
	}
	if err := tx.T.WaitCommitDeps(); err != nil {
		tx.e.cascadingAborts.Add(1)
		tx.abortInternal()
		return ErrAborted
	}
	tx.T.SetState(txn.Terminated)
	if tx.T.ID() != txn.Anonymous {
		tx.e.txns.Remove(tx.T.ID())
	}
	tx.done = true
	tx.e.commits.Add(1)
	tx.e.fastCommits.Add(1)
	tx.e.finishTx(tx)
	return nil
}

// finalizeEnd replaces tx's write lock on v with the commit timestamp. All
// read locks have necessarily drained: the last releaser set NoMoreReadLocks
// and new readers cannot install wait-for dependencies after precommit.
//
//mvlint:noalloc
func (tx *Tx) finalizeEnd(v *storage.Version, endWord uint64) {
	for {
		w := v.End()
		if !field.IsLock(w) || field.Writer(w) != tx.T.ID() {
			return
		}
		if v.CASEnd(w, endWord) {
			return
		}
	}
}

// Abort rolls the transaction back explicitly.
func (tx *Tx) Abort() error {
	if tx.done {
		return ErrTxDone
	}
	tx.abortInternal()
	return nil
}

// abortInternal performs the abort transition and postprocessing: new
// versions are made invisible (Begin = infinity), write locks on old
// versions are reset (unless another transaction already detected the abort
// and took over the version), dependents are told to abort, and garbage is
// handed to the collector.
func (tx *Tx) abortInternal() {
	tx.T.SetState(txn.Aborted)

	tx.releaseAllReadLocks()
	tx.releaseBucketLocks()
	tx.releaseRangeLocks()
	tx.T.ReleaseWaiters(tx.e.txns)

	infWord := field.FromTS(field.Infinity)
	for i := range tx.writeSet {
		wr := &tx.writeSet[i]
		if wr.newV != nil {
			// Make the version invisible to everyone (Section 3.3).
			wr.newV.SetBegin(infWord)
		}
		if wr.old != nil {
			tx.resetEnd(wr.old)
		}
	}

	// Cascade: dependents must also abort (Section 2.7).
	tx.T.ResolveDependents(false, tx.e.txns)
	tx.T.SetState(txn.Terminated)
	if tx.T.ID() != txn.Anonymous {
		tx.e.txns.Remove(tx.T.ID())
	}

	// The new versions are garbage immediately; unlink them.
	for i := range tx.writeSet {
		wr := &tx.writeSet[i]
		if wr.newV != nil {
			tx.e.gc.Retire(wr.table, wr.newV)
		}
	}

	tx.done = true
	tx.e.aborts.Add(1)
	tx.e.finishTx(tx)
}

// resetEnd attempts to restore v's End word to infinity after an abort,
// preserving any read locks. If another transaction has already detected the
// abort and taken over the write lock, the word is left unchanged
// (Section 3.3).
func (tx *Tx) resetEnd(v *storage.Version) {
	for {
		w := v.End()
		if !field.IsLock(w) || field.Writer(w) != tx.T.ID() {
			return
		}
		var nw uint64
		if field.Readers(w) > 0 {
			nw = field.WithWriter(w, field.NoWriter)
		} else {
			nw = field.FromTS(field.Infinity)
		}
		if v.CASEnd(w, nw) {
			return
		}
	}
}

// validate implements the preparation-phase checks of an optimistic
// transaction (Section 3.2): read stability for repeatable read and above,
// phantom detection for serializable.
func (tx *Tx) validate(end uint64) error {
	if tx.iso != RepeatableRead && tx.iso != Serializable {
		return nil
	}
	for _, v := range tx.readSet {
		ok, err := tx.stillVisible(v, end)
		if err != nil {
			return err
		}
		if !ok {
			return ErrValidation
		}
	}
	if tx.iso != Serializable {
		return nil
	}
	// Phantom detection: repeat every scan looking for versions that came
	// into existence during the transaction's lifetime and are visible as of
	// its end (Figure 3's V4 case).
	for i := range tx.scanSet {
		if err := tx.rescan(&tx.scanSet[i], end); err != nil {
			return err
		}
	}
	return nil
}

// rescan repeats one recorded scan at the end timestamp. Point scans walk
// the key's bucket (re-looked-up, so a key — or, on an ordered index, a
// whole skip-list node — created after the original scan is still found);
// range scans re-run the cursor over [lo, hi].
func (tx *Tx) rescan(sc *scanRecord, end uint64) error {
	ord := sc.ix.Ord()
	check := func(v *storage.Version) error {
		if sc.pred != nil && !sc.pred(v.Payload()) {
			return nil
		}
		bw := v.Begin()
		if field.IsTS(bw) && field.TS(bw) <= tx.T.Begin() {
			// Committed by our begin: its valid interval starts before
			// both read times, so visible at end implies visible at begin,
			// whatever a writer in flight does to its End word.
			return nil
		}
		if !field.IsTS(bw) && field.TxID(bw) == tx.T.ID() {
			return nil // our own creation is not a phantom
		}
		if tx.isVisible(v, end) && !tx.isVisible(v, tx.T.Begin()) {
			return ErrValidation // phantom
		}
		return nil
	}
	if sc.ix.Ordered() {
		cur, err := sc.ix.ScanRange(sc.lo, sc.hi)
		if err != nil {
			return err
		}
		for {
			b, _, ok := cur.Next()
			if !ok {
				return nil
			}
			for v := b.Head(); v != nil; v = v.Next(ord) {
				if err := check(v); err != nil {
					return err
				}
			}
		}
	}
	b := sc.ix.Lookup(sc.lo)
	for v := b.Head(); v != nil; v = v.Next(ord) {
		if v.Key(ord) != sc.lo {
			continue
		}
		if err := check(v); err != nil {
			return err
		}
	}
	return nil
}

// stillVisible checks that a read-set version remains visible at the end
// timestamp. Versions the transaction itself updated or deleted pass: the
// write lock proves no other transaction changed them after the read.
func (tx *Tx) stillVisible(v *storage.Version, end uint64) (bool, error) {
	bw := v.Begin()
	if !field.IsTS(bw) && field.TxID(bw) == tx.T.ID() {
		// Our own insert, possibly updated/deleted again by us.
		return true, nil
	}
	for {
		w := v.End()
		if field.IsTS(w) {
			return end < field.TS(w), nil
		}
		writer := field.Writer(w)
		if writer == field.NoWriter || writer == tx.T.ID() {
			return true, nil
		}
		te, ok := tx.e.txns.Lookup(writer)
		if !ok {
			continue // finalizing; reread
		}
		st := te.State()
		teEnd := te.End()
		if te.ID() != writer {
			continue // object recycled: TE terminated; reread the word
		}
		switch st {
		case txn.Active:
			// An uncommitted update: if it ever commits its end timestamp
			// will exceed ours, so our read remains valid.
			return true, nil
		case txn.Preparing, txn.Committed:
			if teEnd == 0 {
				continue
			}
			// If TE's end precedes ours and TE commits, the version was
			// replaced inside our lifetime. We cannot take an
			// "abort-dependency", so fail conservatively even if TE is
			// still preparing.
			return end < teEnd, nil
		case txn.Aborted:
			return true, nil
		default:
			continue
		}
	}
}
