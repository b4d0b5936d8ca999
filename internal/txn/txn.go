// Package txn implements transaction objects and the transaction table.
//
// A transaction moves through the states of Figure 2: Active during normal
// processing, Preparing once it has acquired an end timestamp, then
// Committed or Aborted, and finally Terminated when postprocessing is done
// and the object is removed from the transaction table. Other transactions
// consult the table to resolve Begin/End words that contain transaction IDs
// (Tables 1 and 2 of the paper).
//
// The package also implements the two dependency mechanisms:
//
//   - Commit dependencies (Section 2.7): T1 may commit only if T2 commits.
//     Implemented register-and-report: T1 registers with T2; T2 reports when
//     it resolves. Cascading aborts are possible.
//   - Wait-for dependencies (Section 4.2): T must wait before acquiring its
//     end timestamp. Read-lock releases and bucket-lock holders decrement
//     WaitForCounter; NoMoreWaitFors prevents starvation.
//
// All waits are consolidated just before commit; nothing here blocks during
// normal processing.
package txn

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// State is a transaction lifecycle state (Figure 2).
type State uint32

const (
	// Active transactions are in their normal processing phase.
	Active State = iota
	// Preparing transactions have acquired an end timestamp and are
	// validating, waiting for dependencies, and logging.
	Preparing
	// Committed transactions have durably committed but may not yet have
	// finalized the timestamps in their versions.
	Committed
	// Aborted transactions have failed; their new versions are garbage.
	Aborted
	// Terminated transactions have finished postprocessing. A terminated
	// transaction is removed from the transaction table, so readers observe
	// it as "not found" and reread the version word.
	Terminated
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Active:
		return "Active"
	case Preparing:
		return "Preparing"
	case Committed:
		return "Committed"
	case Aborted:
		return "Aborted"
	case Terminated:
		return "Terminated"
	default:
		return "Unknown"
	}
}

// ErrAborted is returned from wait points when the transaction has been told
// to abort (AbortNow), for example by a failed commit dependency or by the
// deadlock detector.
var ErrAborted = errors.New("txn: abort requested")

// Anonymous is the transaction ID of read-only snapshot readers that never
// enter the transaction table. Real IDs are drawn from the oracle and start
// at 1, so 0 can never appear in a version's Begin/End word: the visibility
// code's "is this my own write?" comparisons are trivially false for an
// anonymous reader, and no lookup of a real ID can ever resolve to one.
// Anonymous transactions must instead be covered by a gc.ReaderPins pin so
// the watermark respects their read time.
const Anonymous uint64 = 0

// DepResult is the outcome of registering a commit dependency.
type DepResult int

const (
	// DepAdded means the dependency was registered; the dependent's
	// CommitDepCounter has been incremented and will be decremented (or its
	// AbortNow flag set) when the target resolves.
	DepAdded DepResult = iota
	// DepCommitted means the target already committed; no dependency is
	// needed.
	DepCommitted
	// DepAborted means the target already aborted; the dependent must abort.
	DepAborted
)

// Txn is a transaction object. It carries only the scheme-independent
// machinery; engines embed it and add their read/scan/write sets.
//
// Txn objects may be pooled and recycled by the engine. Every field that a
// concurrent reader can reach through a stale pointer (obtained from the
// transaction table before the entry was removed) is either atomic or
// mutex-guarded, so Reset never races with late readers; see Reset for the
// logical-safety protocol on top of that.
type Txn struct {
	// id is the transaction's unique identifier, drawn from the global
	// timestamp counter. It fits in the 54-bit WriteLock field. Atomic so a
	// reader holding a stale pointer can revalidate it after Reset (IDs are
	// never reused, so id is also the object's incarnation tag).
	id atomic.Uint64
	// begin is the begin timestamp, assigned at creation or Reset.
	begin atomic.Uint64

	end   atomic.Uint64
	state atomic.Uint32

	// commitDepCounter counts unresolved incoming commit dependencies.
	commitDepCounter atomic.Int32
	abortNow         atomic.Bool

	mu   sync.Mutex
	cond sync.Cond

	// depsClosed is set (under mu) when the transaction resolves its
	// dependents; registrations arriving later consult the final state.
	depsClosed bool
	committed  bool
	// commitDepSet holds IDs of transactions that depend on this one
	// committing (the paper's CommitDepSet).
	commitDepSet []uint64

	// waitForCounter counts incoming wait-for dependencies (guarded by mu).
	waitForCounter int
	// noMoreWaitFors, once set, rejects new incoming wait-for dependencies
	// (guarded by mu). It is set when the transaction has drained its
	// wait-fors and is about to precommit, preventing starvation.
	noMoreWaitFors bool
	// outgoingReleased is set once outgoing wait-fors have been released, so
	// late registrations into waitingTxnList are refused (guarded by mu).
	outgoingReleased bool
	// waitingTxnList holds IDs of transactions that wait on this transaction
	// to complete (the paper's WaitingTxnList). They are released when this
	// transaction precommits or aborts.
	waitingTxnList []uint64

	// lockMu guards readLocks: the versions this transaction holds read
	// locks on, as published by the owning engine for the deadlock detector
	// to recover implicit wait-for edges (Section 4.4, step 3). The engine
	// keeps the list itself and publishes it once, before waiting on
	// wait-for dependencies; until it withdraws the list (nil) it does not
	// modify it.
	lockMu    sync.Mutex
	readLocks []*storage.Version
}

// New creates a transaction in the Active state with the given ID and begin
// timestamp. Engines should allocate both from the same oracle draw.
func New(id, begin uint64) *Txn {
	t := &Txn{}
	t.cond.L = &t.mu
	t.id.Store(id)
	t.begin.Store(begin)
	return t
}

// Reset re-initializes a terminated transaction object for reuse with a new
// identity. The caller must guarantee that the object has been removed from
// the transaction table AND that every transaction which could have looked it
// up has itself terminated (the engine defers reuse until the GC watermark
// passes the removal timestamp). The new id is published first: a late reader
// that revalidates the id after reading state/end words (see ID) will detect
// the recycle and treat the old transaction as terminated.
func (t *Txn) Reset(id, begin uint64) {
	t.id.Store(id)
	t.begin.Store(begin)
	t.end.Store(0)
	t.state.Store(uint32(Active))
	t.commitDepCounter.Store(0)
	t.abortNow.Store(false)
	t.mu.Lock()
	t.depsClosed = false
	t.committed = false
	t.commitDepSet = t.commitDepSet[:0]
	t.waitForCounter = 0
	t.noMoreWaitFors = false
	t.outgoingReleased = false
	t.waitingTxnList = t.waitingTxnList[:0]
	t.mu.Unlock()
	// readLocks needs no reset: the engine withdraws a published list before
	// its transaction finishes, so it is already nil here.
}

// ID returns the transaction's unique identifier. Readers that obtained this
// object from the transaction table and then read its state or end timestamp
// should call ID again afterwards: a changed value means the object was
// recycled, so the transaction they looked up has terminated and the version
// word that named it must be reread.
func (t *Txn) ID() uint64 { return t.id.Load() }

// Begin returns the begin timestamp.
func (t *Txn) Begin() uint64 { return t.begin.Load() }

// State returns the current lifecycle state.
func (t *Txn) State() State { return State(t.state.Load()) }

// SetState transitions the lifecycle state. Transitions are stores of the
// new state; visibility checks tolerate any interleaving because they treat
// Terminated/not-found as "reread the word".
func (t *Txn) SetState(s State) { t.state.Store(uint32(s)) }

// End returns the end timestamp, or 0 if none has been assigned yet.
func (t *Txn) End() uint64 { return t.end.Load() }

// SetEnd assigns the end timestamp. It must be called exactly once, just
// before the transition to Preparing.
func (t *Txn) SetEnd(ts uint64) { t.end.Store(ts) }

// AbortRequested reports whether some other transaction (a failed commit
// dependency or the deadlock detector) has asked this transaction to abort.
func (t *Txn) AbortRequested() bool { return t.abortNow.Load() }

// RequestAbort sets the AbortNow flag and wakes the transaction if it is
// waiting. The owner notices at its next wait point or state check.
func (t *Txn) RequestAbort() {
	t.abortNow.Store(true)
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// --- Commit dependencies (Section 2.7) ---

// RegisterDependent registers dep's commit dependency on t: dep may commit
// only if t commits. On DepAdded the dependent's counter was incremented; on
// DepAborted the caller must abort dep; on DepCommitted no dependency is
// needed.
func (t *Txn) RegisterDependent(dep *Txn) DepResult {
	t.mu.Lock()
	if t.depsClosed {
		committed := t.committed
		t.mu.Unlock()
		if committed {
			return DepCommitted
		}
		return DepAborted
	}
	dep.commitDepCounter.Add(1)
	t.commitDepSet = append(t.commitDepSet, dep.ID())
	t.mu.Unlock()
	return DepAdded
}

// CommitDepCount returns the number of unresolved commit dependencies.
func (t *Txn) CommitDepCount() int { return int(t.commitDepCounter.Load()) }

// ResolveDependents reports this transaction's outcome to every registered
// dependent. On commit their counters are decremented (waking them at zero);
// on abort their AbortNow flags are set, cascading the abort. Dependents
// that are no longer in the table have already aborted and are skipped.
func (t *Txn) ResolveDependents(committed bool, table *Table) {
	t.mu.Lock()
	t.depsClosed = true
	t.committed = committed
	// Once depsClosed is set no further registrations append, so the slice
	// can be read outside the lock and left in place for Reset to reuse.
	deps := t.commitDepSet
	t.mu.Unlock()
	for _, id := range deps {
		d, ok := table.Lookup(id)
		if !ok {
			continue // already aborted and terminated
		}
		if committed {
			if d.commitDepCounter.Add(-1) <= 0 {
				d.mu.Lock()
				d.cond.Broadcast()
				d.mu.Unlock()
			}
		} else {
			d.RequestAbort()
		}
	}
}

// WaitCommitDeps blocks until all commit dependencies are resolved. It
// returns ErrAborted if AbortNow was set, in which case the transaction must
// abort (a dependency failed). Note that a transaction with commit
// dependencies may not wait at all: dependencies are often resolved before
// it is ready to commit.
func (t *Txn) WaitCommitDeps() error {
	// Fast path: all registrations were performed by this transaction's own
	// goroutine (a dependent registers itself), so a zero counter means no
	// dependency is outstanding — no lock needed.
	if t.abortNow.Load() {
		return ErrAborted
	}
	if t.commitDepCounter.Load() <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.abortNow.Load() {
			return ErrAborted
		}
		if t.commitDepCounter.Load() <= 0 {
			return nil
		}
		t.cond.Wait()
	}
}

// --- Wait-for dependencies (Section 4.2) ---

// AddWaitFor installs an incoming wait-for dependency: t may not precommit
// until the dependency is released. It fails (returns false) if t no longer
// accepts dependencies (NoMoreWaitFors), in which case the caller must
// abort.
func (t *Txn) AddWaitFor() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.noMoreWaitFors {
		return false
	}
	t.waitForCounter++
	return true
}

// ReleaseWaitFor releases one incoming wait-for dependency, waking t if the
// counter reaches zero.
func (t *Txn) ReleaseWaitFor() {
	t.mu.Lock()
	t.waitForCounter--
	if t.waitForCounter <= 0 {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

// WaitForCount returns the number of unresolved incoming wait-for
// dependencies. It is used by the deadlock detector.
func (t *Txn) WaitForCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waitForCounter
}

// WaitWaitFors blocks until the wait-for counter drains, then atomically
// sets NoMoreWaitFors so no further dependencies can be installed, and
// returns. It returns ErrAborted if AbortNow was set while waiting (for
// example by the deadlock detector breaking a cycle).
func (t *Txn) WaitWaitFors() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.abortNow.Load() {
			return ErrAborted
		}
		if t.waitForCounter <= 0 {
			t.noMoreWaitFors = true
			return nil
		}
		t.cond.Wait()
	}
}

// RegisterWaiter records that waiter waits on t to complete (t's
// WaitingTxnList gains waiter). It returns false if t has already released
// its outgoing dependencies, meaning no dependency is needed: t has finished
// the phase the waiter cares about.
func (t *Txn) RegisterWaiter(waiter uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.outgoingReleased {
		return false
	}
	t.waitingTxnList = append(t.waitingTxnList, waiter)
	return true
}

// Waiters returns a snapshot of the IDs waiting on t. Used by the deadlock
// detector to build explicit wait-for edges.
func (t *Txn) Waiters() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, len(t.waitingTxnList))
	copy(out, t.waitingTxnList)
	return out
}

// ReleaseWaiters releases every transaction waiting on t: each one's
// WaitForCounter is decremented. Called when t precommits (acquires its end
// timestamp) or aborts. Subsequent RegisterWaiter calls return false.
func (t *Txn) ReleaseWaiters(table *Table) {
	t.mu.Lock()
	t.outgoingReleased = true
	// outgoingReleased blocks further registrations, so the slice can be
	// read outside the lock and left in place for Reset to reuse.
	waiters := t.waitingTxnList
	t.mu.Unlock()
	for _, id := range waiters {
		if w, ok := table.Lookup(id); ok {
			w.ReleaseWaitFor()
		}
	}
}

// Blocked reports whether the transaction is currently prevented from
// precommitting by incoming wait-for dependencies. The deadlock detector
// only considers transactions for which this is true.
func (t *Txn) Blocked() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waitForCounter > 0 && !t.abortNow.Load()
}

// --- Read-lock bookkeeping (the ReadSet of Section 4) ---

// PublishReadLocks makes locks the transaction's read-lock list as the
// deadlock detector sees it; nil withdraws it. The list is shared, not
// copied: the caller must not modify it until it has been withdrawn.
func (t *Txn) PublishReadLocks(locks []*storage.Version) {
	t.lockMu.Lock()
	t.readLocks = locks
	t.lockMu.Unlock()
}

// SnapshotReadLocks copies the published read-lock list for the deadlock
// detector.
func (t *Txn) SnapshotReadLocks() []*storage.Version {
	t.lockMu.Lock()
	out := make([]*storage.Version, len(t.readLocks))
	copy(out, t.readLocks)
	t.lockMu.Unlock()
	return out
}
