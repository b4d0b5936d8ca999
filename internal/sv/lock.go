// Package sv implements the single-version locking engine of Section 5: a
// main-memory optimized variant of traditional single-version locking with
// no central lock manager. A lock table is embedded in every hash index —
// each hash key maps to one reader/writer lock covering all records with
// that hash key, which automatically protects against phantoms. Deadlocks
// are detected and broken by timeouts, as in the paper's implementation.
//
// Updates are performed in place under exclusive locks, with undo records
// for rollback. Read locks are held to commit at repeatable read and
// serializable, and released immediately after the read (cursor stability)
// at read committed — which is why even read-only transactions pay lock
// acquisition costs in this engine (Section 5.2.1).
//
// The lock is a single 64-bit word manipulated by compare-and-swap on the
// fast path — one atomic operation per uncontended acquisition and per
// release, which is what makes lock acquisition cheap enough not to become
// a bottleneck (Section 7: "single-version locking can be implemented
// efficiently"), and with the chain head it makes a hash bucket 16 bytes.
// Waiting is the slow path and lives outside the word: each hash index keeps
// a small striped wait table, a bucket's waiters sleep on the stripe its
// slot picks, and one bit of the word tells a releaser whether anyone sleeps
// there (see waitStripe).
package sv

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrLockTimeout is returned when a lock cannot be acquired before the
// deadline; the paper breaks deadlocks with timeouts, so the transaction
// must abort and may be retried.
var ErrLockTimeout = errors.New("sv: lock wait timeout (possible deadlock)")

// keyLock is one slot of the partitioned lock table: a reader/writer lock
// with per-transaction recursion, upgrade support and timed waits. It guards
// every record hashing to its bucket and the bucket chain itself.
//
// State word: bits 11..63 hold the exclusive owner's transaction ID (0 =
// none); bit 10 (waitBit) is set while a waiter may be asleep on the lock's
// wait stripe; bits 0..9 hold the shared count. A transaction's recursive
// shared and exclusive holds are tracked by the transaction itself
// (heldLock), so the word needs no recursion counts: upgrades verify that
// every shared hold belongs to the upgrader by comparing the word's count
// with the transaction's own. The lock carries no wait machinery of its
// own; every method that may wait or wake is handed the lock's waitStripe.
type keyLock struct {
	state atomic.Uint64
}

const (
	readersBits = 10
	readersMask = 1<<readersBits - 1
	maxReaders  = readersMask
	// waitBit marks a lock some waiter sleeps on. A waiter sets it by CAS
	// while holding its stripe's mutex; a release clears it in its one CAS
	// and, only if it was set, broadcasts on the stripe.
	waitBit     = 1 << readersBits
	writerShift = readersBits + 1
)

func pack(writer uint64, readers uint64) uint64 { return writer<<writerShift | readers }
func unpack(s uint64) (writer, readers uint64)  { return s >> writerShift, s & readersMask }

// acquireS takes one shared hold for txid, waiting on ws at most timeout. A
// transaction holding the exclusive lock may also take shared holds. The
// fast path is a single compare-and-swap; the clock is only consulted when
// the lock is actually contended.
func (l *keyLock) acquireS(txid uint64, timeout time.Duration, ws *waitStripe) error {
	var timer *time.Timer
	defer stopTimer(&timer)
	for {
		s := l.state.Load()
		w, r := unpack(s)
		if (w == 0 || w == txid) && r < maxReaders {
			if l.state.CompareAndSwap(s, s+1) {
				return nil
			}
			continue
		}
		if err := ws.wait(l, s, timeout, &timer); err != nil {
			return err
		}
	}
}

// acquireX takes the exclusive lock for txid, waiting on ws at most timeout.
// heldS is the number of shared holds txid already has on this lock; the
// upgrade succeeds only when txid's holds are the only shared holds (two
// concurrent upgraders deadlock and one times out).
func (l *keyLock) acquireX(txid uint64, heldS int, timeout time.Duration, ws *waitStripe) error {
	var timer *time.Timer
	defer stopTimer(&timer)
	for {
		s := l.state.Load()
		w, r := unpack(s)
		if w == txid {
			return nil // reentrant: the transaction tracks its X count
		}
		if w == 0 && r == uint64(heldS) {
			if l.state.CompareAndSwap(s, pack(txid, r)|s&waitBit) {
				return nil
			}
			continue
		}
		if err := ws.wait(l, s, timeout, &timer); err != nil {
			return err
		}
	}
}

// releaseS drops one shared hold (cursor-stability release) and wakes ws
// if a waiter had marked the lock.
func (l *keyLock) releaseS(ws *waitStripe) {
	for {
		s := l.state.Load()
		if s&readersMask == 0 {
			return // defensive: nothing to release
		}
		if l.state.CompareAndSwap(s, (s-1)&^waitBit) {
			if s&waitBit != 0 {
				ws.broadcast()
			}
			return
		}
	}
}

// releaseBulk drops heldS shared holds and, if heldX, the exclusive lock —
// the commit/abort path releases each lock with a single CAS, which also
// clears waitBit; it wakes ws only if the bit was set.
func (l *keyLock) releaseBulk(txid uint64, heldS int, heldX bool, ws *waitStripe) {
	for {
		s := l.state.Load()
		w, r := unpack(s)
		if heldX && w == txid {
			w = 0
		}
		if r >= uint64(heldS) {
			r -= uint64(heldS)
		} else {
			r = 0 // defensive
		}
		if l.state.CompareAndSwap(s, pack(w, r)) {
			if s&waitBit != 0 {
				ws.broadcast()
			}
			return
		}
	}
}

// heldX reports whether txid holds the exclusive lock.
func (l *keyLock) heldX(txid uint64) bool {
	w, _ := unpack(l.state.Load())
	return w == txid
}

// waitStripes is the number of wait stripes per hash index; bucket slot i
// waits on stripe i mod waitStripes.
const waitStripes = 16

// waitStripe is where the waiters of the keyLocks of one stripe of a hash
// index sleep: a channel closed and replaced on every broadcast. A broadcast
// wakes every waiter of the stripe; one whose lock did not change rechecks
// and sleeps again. No wake-up is lost: a waiter takes the channel under mu
// in the critical section that set waitBit on its lock's unchanged state,
// so the release that moves that state sees the bit and broadcasts under
// mu after the waiter holds the channel.
//
//mvlint:padded
type waitStripe struct {
	mu sync.Mutex
	ch chan struct{}
	_  [48]byte
}

// wait marks l with waitBit and blocks until l's state may have left old or
// the timeout (counted from the first wait) expires. It returns at once if
// the state already moved.
func (ws *waitStripe) wait(l *keyLock, old uint64, timeout time.Duration, timer **time.Timer) error {
	ws.mu.Lock()
	if !l.state.CompareAndSwap(old, old|waitBit) {
		ws.mu.Unlock()
		return nil
	}
	if ws.ch == nil {
		ws.ch = make(chan struct{})
	}
	ch := ws.ch
	ws.mu.Unlock()
	if *timer == nil {
		if timeout <= 0 {
			return ErrLockTimeout
		}
		*timer = time.NewTimer(timeout)
	}
	select {
	case <-ch:
		return nil
	case <-(*timer).C:
		return ErrLockTimeout
	}
}

// broadcast wakes every waiter sleeping on ws.
func (ws *waitStripe) broadcast() {
	ws.mu.Lock()
	if ws.ch != nil {
		close(ws.ch)
		ws.ch = nil
	}
	ws.mu.Unlock()
}

func stopTimer(t **time.Timer) {
	if *t != nil {
		(*t).Stop()
	}
}
