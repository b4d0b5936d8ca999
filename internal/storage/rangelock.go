package storage

import (
	"sync"
	"sync/atomic"
	"time"
)

// RangeLockTable is the key-range lock table of one ordered index, used by
// both engines. A hash index can cover any key (absent keys still hash to
// some bucket); an ordered index cannot, so phantom protection for ranges —
// and for point scans of absent keys — must be keyed by the range itself.
//
// Two entries conflict only when they belong to different transactions,
// their ranges overlap and at least one of them is exclusive.
//
//   - MV/L (Section 4.1.2's bucket locks, predicate-shaped): serializable
//     scans take shared entries, which never conflict, and a writer whose
//     key falls inside a held range takes a wait-for dependency on every
//     holder (AppendHolders).
//   - 1V (Section 5's key-range locking): scans take shared entries,
//     writers exclusive point entries [k, k], and a conflicting request
//     waits until a deadline that breaks deadlocks. 1V record chains are
//     read only under an entry covering their key and written only under a
//     conflicting one, so the table's mutex orders every read of a chain
//     after the write that produced it.
type RangeLockTable struct {
	mu sync.Mutex
	// active mirrors len(locks) so inserters can skip the mutex entirely
	// when no range lock is held (the common case), exactly like the
	// per-bucket LockCount fast path.
	active atomic.Int32
	// excl counts the exclusive entries in locks: a shared request skips
	// the conflict scan while it is zero, so a table holding only shared
	// entries (every MV/L table) acquires in O(1).
	excl  int
	locks []rangeLock
	// waitCh is closed, and cleared, when an entry is released; conflicting
	// requests park on it.
	waitCh chan struct{}
}

type rangeLock struct {
	lo, hi uint64
	txid   uint64
	excl   bool
}

// conflicts reports whether a request for [lo, hi] collides with an entry
// of another transaction; mu is held.
func (t *RangeLockTable) conflicts(lo, hi, txid uint64, excl bool) bool {
	if !excl && t.excl == 0 {
		return false
	}
	for i := range t.locks {
		l := &t.locks[i]
		if l.txid != txid && (excl || l.excl) && l.lo <= hi && lo <= l.hi {
			return true
		}
	}
	return false
}

// Acquire records that txid holds a lock on [lo, hi], shared or exclusive.
// Ranges are inclusive on both ends. A request that conflicts waits at most
// timeout for the conflicting entries to drain (timeout <= 0 fails at once)
// and reports false on expiry, leaving no entry behind.
//
// The active counter is incremented inside the critical section, before the
// lock is appended: an inserter's Active()==0 fast path must never observe
// the lock in the table while the counter still reads zero, or it would skip
// the wait-for dependency on a scanner that has already finished acquiring —
// a phantom window. With the increment first, an inserter that loads a zero
// counter is guaranteed the scanner has not yet returned from Acquire, so
// the scanner's subsequent scan runs after the inserter's (already linked)
// version became reachable and sees it.
func (t *RangeLockTable) Acquire(lo, hi, txid uint64, excl bool, timeout time.Duration) bool {
	var timer *time.Timer
	t.mu.Lock()
	for t.conflicts(lo, hi, txid, excl) {
		if t.waitCh == nil {
			t.waitCh = make(chan struct{})
		}
		ch := t.waitCh
		t.mu.Unlock()
		if timer == nil {
			if timeout <= 0 {
				return false
			}
			timer = time.NewTimer(timeout)
		}
		select {
		case <-ch:
		case <-timer.C:
			return false
		}
		t.mu.Lock()
	}
	if timer != nil {
		timer.Stop()
	}
	t.active.Add(1)
	if excl {
		t.excl++
	}
	t.locks = append(t.locks, rangeLock{lo, hi, txid, excl})
	t.mu.Unlock()
	return true
}

// Release removes one [lo, hi] entry of the given mode held by txid and
// wakes the waiters. Releasing an entry that is not held is a no-op, the
// wake-up included: nothing a waiter waits on has changed, and waking them
// all on every read-committed 1V scan's release was a storm at high MPL.
func (t *RangeLockTable) Release(lo, hi, txid uint64, excl bool) {
	t.mu.Lock()
	for i := range t.locks {
		l := t.locks[i]
		if l.txid == txid && l.lo == lo && l.hi == hi && l.excl == excl {
			last := len(t.locks) - 1
			t.locks[i] = t.locks[last]
			t.locks = t.locks[:last]
			t.active.Add(-1)
			if excl {
				t.excl--
			}
			if t.waitCh != nil {
				close(t.waitCh)
				t.waitCh = nil
			}
			break
		}
	}
	t.mu.Unlock()
}

// Active returns the number of range locks currently held; inserters use it
// as a cheap "is anything locked at all?" check before taking the mutex.
func (t *RangeLockTable) Active() int { return int(t.active.Load()) }

// AppendHolders appends the IDs of transactions holding a range containing
// key to dst and returns the extended slice. A transaction holding several
// covering ranges appears once per range; callers dedupe by transaction the
// same way they do for bucket-lock holder lists.
func (t *RangeLockTable) AppendHolders(dst []uint64, key uint64) []uint64 {
	t.mu.Lock()
	for i := range t.locks {
		l := t.locks[i]
		if l.lo <= key && key <= l.hi {
			dst = append(dst, l.txid)
		}
	}
	t.mu.Unlock()
	return dst
}

// RangeHold is one entry a transaction holds in a RangeLockTable, recorded
// for release when the transaction ends.
type RangeHold struct {
	Table  *RangeLockTable
	Lo, Hi uint64
	Excl   bool
}

// RangeCovered reports whether an entry in held already grants a request
// for [lo, hi] on t: it contains the range and is exclusive or the request
// is shared. Callers skip such a request instead of adding an entry.
func RangeCovered(held []RangeHold, t *RangeLockTable, lo, hi uint64, excl bool) bool {
	for i := range held {
		h := &held[i]
		if h.Table == t && h.Lo <= lo && hi <= h.Hi && (h.Excl || !excl) {
			return true
		}
	}
	return false
}
