package mv

import (
	"runtime"

	"repro/internal/field"
	"repro/internal/storage"
	"repro/internal/txn"
)

// infinityWord is the End word of a latest version with no locks.
var infinityWord = field.FromTS(field.Infinity)

// visOutcome is the result of a visibility test. When dep is non-nil the
// outcome is speculative: it holds only if dep commits, so the caller must
// register a commit dependency before relying on it (Section 2.7).
type visOutcome struct {
	visible bool
	dep     *txn.Txn
}

// checkVisibility decides whether version v is visible to transaction self
// at logical read time rt, implementing the case analyses of Tables 1 and 2.
// It never blocks: when a Begin or End word holds the ID of a transaction in
// flux, the outcome is speculative (dep is set) or the word is reread.
//
// self may be a reader that is absent from the transaction table (a
// read-only fast-lane transaction, ID txn.Anonymous): real IDs start at 1,
// so the own-write comparisons below are trivially false for it and every
// other case is resolved purely through the writer's table entry.
//
//mvlint:noalloc
func (e *Engine) checkVisibility(self *txn.Txn, v *storage.Version, rt uint64) visOutcome {
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%64 == 0 {
			// The owner is between finalizing the word and leaving the
			// transaction table; give it a chance to finish.
			runtime.Gosched()
		}

		bw := v.Begin()
		var beginTS uint64
		var dep *txn.Txn

		if field.IsTS(bw) {
			beginTS = field.TS(bw)
		} else {
			tbID := field.TxID(bw)
			if tbID == self.ID() {
				// Table 1, Active & TB = T: our own new version is visible
				// only if it is our latest — End is infinity, possibly with
				// read locks (a lock word with no writer). If we updated or
				// deleted it again, the End word holds our ID and the
				// version is invisible to us.
				ew := v.End()
				if field.IsTS(ew) {
					return visOutcome{visible: field.TS(ew) == field.Infinity}
				}
				return visOutcome{visible: !field.HasWriter(ew)}
			}
			tb, ok := e.txns.Lookup(tbID)
			if !ok {
				// Terminated or not found: TB finalized the word; reread.
				continue
			}
			st := tb.State()
			tstamp := tb.End()
			if tb.ID() != tbID {
				// The object was recycled for a new transaction, so TB has
				// terminated and finalized the word; reread.
				continue
			}
			switch st {
			case txn.Active:
				// Uncommitted version of another transaction: invisible.
				return visOutcome{}
			case txn.Preparing:
				// V's begin timestamp will be TB's end timestamp if TB
				// commits. Test with it; a true outcome is a speculative
				// read requiring a commit dependency on TB.
				if tstamp == 0 {
					continue // end timestamp not yet published; reread
				}
				beginTS = tstamp
				dep = tb
			case txn.Committed:
				// Committed but Begin not yet finalized: use TB's end
				// timestamp; no dependency needed.
				if tstamp == 0 {
					continue
				}
				beginTS = tstamp
			case txn.Aborted:
				// Garbage version.
				return visOutcome{}
			default: // Terminated
				continue
			}
		}

		if rt < beginTS {
			// Begins after the read time: invisible. No dependency: the
			// speculative-read rule only applies when the test is true.
			return visOutcome{}
		}

		// The valid time begins at or before rt; now check the End word
		// (Table 2).
		ew := v.End()
		if field.IsTS(ew) {
			return visOutcome{visible: rt < field.TS(ew), dep: depIf(rt < field.TS(ew), dep)}
		}
		// Lock word. With no write lock the version is the latest: its end
		// is infinity regardless of read locks.
		if !field.HasWriter(ew) {
			return visOutcome{visible: true, dep: dep}
		}
		teID := field.Writer(ew)
		if teID == self.ID() {
			// We updated or deleted this version ourselves: the old version
			// is invisible to us (we see the new one).
			return visOutcome{}
		}
		te, ok := e.txns.Lookup(teID)
		if !ok {
			continue // TE finalized the word; reread
		}
		teState := te.State()
		teEnd := te.End()
		if te.ID() != teID {
			continue // object recycled: TE terminated; reread the word
		}
		switch teState {
		case txn.Active:
			// Another transaction's uncommitted update: the old version is
			// still the visible one.
			return visOutcome{visible: true, dep: dep}
		case txn.Preparing:
			tstamp := teEnd
			if tstamp == 0 {
				continue
			}
			if tstamp > rt {
				// Even if TE commits, V remains visible at rt; if TE aborts
				// any later updater gets a larger end timestamp. Visible
				// either way — no dependency on TE.
				return visOutcome{visible: true, dep: dep}
			}
			// TS < RT: if TE commits V is invisible, if TE aborts it is
			// visible. Speculatively ignore V with a commit dependency on
			// TE.
			return visOutcome{visible: false, dep: te}
		case txn.Committed:
			tstamp := teEnd
			if tstamp == 0 {
				continue
			}
			return visOutcome{visible: rt < tstamp, dep: depIf(rt < tstamp, dep)}
		case txn.Aborted:
			// Table 2: V is visible. Any transaction that updates V after
			// TE's abort acquires an end timestamp after our read time, so a
			// racing overwrite cannot make V invisible at rt.
			return visOutcome{visible: true, dep: dep}
		default: // Terminated
			continue
		}
	}
}

func depIf(visible bool, dep *txn.Txn) *txn.Txn {
	if visible {
		return dep
	}
	return nil
}

// isVisible runs the visibility test and registers any required commit
// dependency. If the dependency target already resolved, the test is rerun
// against its final state.
//
//mvlint:noalloc
func (tx *Tx) isVisible(v *storage.Version, rt uint64) bool {
	for {
		out := tx.e.checkVisibility(tx.T, v, rt)
		if out.dep == nil {
			return out.visible
		}
		if tx.T.ID() == txn.Anonymous {
			// A fast-lane reader cannot take a commit dependency: resolution
			// would look it up in the transaction table. The window is tiny —
			// dep is mid-Preparing, and it can never wait on us (we hold no
			// locks and receive no dependencies) — so wait it out and rerun
			// the test against the final state.
			runtime.Gosched()
			continue
		}
		switch out.dep.RegisterDependent(tx.T) {
		case txn.DepAdded:
			tx.e.speculativeReads.Add(1)
			return out.visible
		case txn.DepCommitted:
			// Already committed: the speculative outcome is now definite.
			return out.visible
		case txn.DepAborted:
			// The target aborted; the visibility outcome flips or the
			// version is garbage. Re-run against the final state.
			continue
		}
	}
}
