package mv

import (
	"repro/internal/field"
	"repro/internal/storage"
)

// Capture streams a transactionally consistent snapshot of the given tables
// to fn and returns the stable timestamp S it was taken at: the snapshot
// contains the effects of exactly the committed transactions with end
// timestamp at most S. It is the checkpoint scan (paper Section 4 lineage:
// continuous checkpointing of committed versions).
//
// S is the engine's quiescence watermark — the same expression the garbage
// collector uses (oldest active begin timestamp, bounded by reader pins).
// Every transaction with end timestamp <= S has fully left the commit path:
// its redo record is queued in the log (commit appends before the
// transaction leaves the transaction table) and its version words are
// finalized timestamps, so a version's visibility at S is decided by plain
// word comparisons with no transaction-state chasing.
//
// The scan runs under a reader pin at the current clock (the registered
// fallback when the pin table is full), which keeps traversal memory-safe:
// versions unlinked after the pin cannot be recycled until it is released.
// Versions retired *before* the pin may already be gone; that is harmless
// for recovery, because a version visible at S can only have been retired by
// a later committed transaction (end > S) whose redo record is in the
// retained log tail — replay re-materializes exactly those rows. The
// checkpoint is therefore a subset of the S-snapshot whose missing rows are
// all re-created by tail replay; see docs/durability.md.
//
// The payload passed to fn is valid only during the callback. An error from
// fn aborts the capture and is returned.
func (e *Engine) Capture(tables []*storage.Table, fn func(t *storage.Table, key uint64, payload []byte) error) (uint64, error) {
	// Publish the pin BEFORE drawing the stable timestamp, as BeginReadOnly
	// does: the pin bounds every future watermark computation.
	slot, cover := e.pin()
	defer e.unpin(slot, cover)

	s := e.pins.Min(e.txns.OldestBegin(e.oracle.Current()))
	for _, t := range tables {
		if err := e.captureTable(t, s, fn); err != nil {
			return 0, err
		}
	}
	return s, nil
}

// captureTable scans table t's primary index (ordinal 0) and emits every
// version visible at s.
func (e *Engine) captureTable(t *storage.Table, s uint64, fn func(t *storage.Table, key uint64, payload []byte) error) error {
	emitChain := func(head *storage.Version) error {
		for v := head; v != nil; v = v.Next(0) {
			if !visibleAt(v, s) {
				continue
			}
			if err := fn(t, v.Key(0), v.Payload()); err != nil {
				return err
			}
		}
		return nil
	}
	switch ix := t.Index(0).(type) {
	case *storage.HashIndex:
		// "To scan a table, one simply scans all buckets of any index on the
		// table" (Section 2.1).
		for i := 0; i < ix.NumBuckets(); i++ {
			if err := emitChain(ix.BucketAt(i).Head()); err != nil {
				return err
			}
		}
		return nil
	default:
		cur, err := t.Index(0).ScanRange(0, ^uint64(0))
		if err != nil {
			return err
		}
		for {
			b, _, ok := cur.Next()
			if !ok {
				return nil
			}
			if err := emitChain(b.Head()); err != nil {
				return err
			}
		}
	}
}

// visibleAt reports whether version v belongs to the committed snapshot at
// stable timestamp s. Because every transaction with end timestamp <= s has
// finalized its version words (see Capture), any word still holding a
// transaction ID or lock belongs to a transaction that will commit or abort
// strictly after s, and resolves the same way a later timestamp would.
func visibleAt(v *storage.Version, s uint64) bool {
	b := v.Begin()
	if !field.IsTS(b) || field.TS(b) > s {
		// Created after s, by a still-active transaction, or aborted
		// (Infinity > s always).
		return false
	}
	e := v.End()
	if field.IsTS(e) && field.TS(e) <= s {
		return false // replaced or deleted at or before s
	}
	// A lock-word End belongs to a transaction ending after s: visible.
	return true
}
