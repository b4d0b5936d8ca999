// Package p is the lockedoracle golden corpus: each site marked `want`
// must be flagged, everything else must stay silent.
package p

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/ts"
)

type engine struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	funnel *ts.Funnel
	ch     chan int
}

// convoyDraw reconstructs the PR 8 hazard: the end-timestamp draw under the
// commit lock goes through Next, which may open the combining window and
// yield while every other committer is blocked on mu.
func (e *engine) convoyDraw() uint64 {
	e.mu.Lock()
	end := e.funnel.Next() // want "Funnel.Next .window-opening draw. inside a mutex-locked region"
	e.mu.Unlock()
	return end
}

// lockedDraw is the fixed form: NextLocked never opens the window.
func (e *engine) lockedDraw() uint64 {
	e.mu.Lock()
	end := e.funnel.NextLocked()
	e.mu.Unlock()
	return end
}

func (e *engine) sleepUnderLock() {
	e.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep inside a mutex-locked region"
	e.mu.Unlock()
	time.Sleep(time.Millisecond) // after the unlock: fine
}

func (e *engine) goschedUnderRLock() {
	e.rw.RLock()
	runtime.Gosched() // want "runtime.Gosched inside a mutex-locked region"
	e.rw.RUnlock()
}

func (e *engine) channelOps() {
	e.mu.Lock()
	e.ch <- 1   // want "channel send inside a mutex-locked region"
	v := <-e.ch // want "channel receive inside a mutex-locked region"
	_ = v
	select { // want "select .channel wait. inside a mutex-locked region"
	case <-e.ch:
	default:
	}
	e.mu.Unlock()
}

// deferredUnlock: a deferred unlock keeps the region open to function end.
func (e *engine) deferredUnlock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	runtime.Gosched() // want "runtime.Gosched inside a mutex-locked region"
}

// tryLockBody: the body of a successful TryLock runs at raised depth.
func (e *engine) tryLockBody() {
	if e.mu.TryLock() {
		time.Sleep(time.Millisecond) // want "time.Sleep inside a mutex-locked region"
		e.mu.Unlock()
	}
	time.Sleep(time.Millisecond) // TryLock may have failed: fine
}

// branchLocal: a branch that locks and returns does not poison the
// fallthrough path.
func (e *engine) branchLocal(fast bool) {
	if fast {
		e.mu.Lock()
		e.mu.Unlock()
		return
	}
	runtime.Gosched() // no lock held here
}

// closures run in an unknown context: only their own locking is checked.
func (e *engine) closures() func() {
	e.mu.Lock()
	f := func() {
		runtime.Gosched() // closure body scanned at depth zero
		e.mu.Lock()
		time.Sleep(time.Millisecond) // want "time.Sleep inside a mutex-locked region"
		e.mu.Unlock()
	}
	e.mu.Unlock()
	return f
}

// spawned goroutines do not inherit the spawner's locks.
func (e *engine) spawns() {
	e.mu.Lock()
	go func() {
		time.Sleep(time.Millisecond) // new goroutine: fine
	}()
	e.mu.Unlock()
}

// drainLocked is called with e.mu held (the ts.Funnel.combine pattern):
// the annotation starts the scan at depth one.
//
//mvlint:locked
func (e *engine) drainLocked() {
	runtime.Gosched() // want "runtime.Gosched inside a mutex-locked region"
}

type stagingLog struct {
	mu   sync.Mutex
	kick chan struct{}
	recs int
}

// kickUnderLock reconstructs the staging-batch WAL hazard: the appender
// whose record makes the batch due wakes the flusher while still holding the
// log mutex. Even a non-blocking send is a scheduling point, and the flusher
// it readies needs that very mutex to swap the batch out.
func (l *stagingLog) kickUnderLock() {
	l.mu.Lock()
	l.recs++
	select { // want "select .channel wait. inside a mutex-locked region"
	case l.kick <- struct{}{}:
	default:
	}
	l.mu.Unlock()
}

// kickAfterUnlock is the form wal.Log.Append uses: decide under the mutex,
// kick after releasing it.
func (l *stagingLog) kickAfterUnlock() {
	l.mu.Lock()
	l.recs++
	due := l.recs == 1
	l.mu.Unlock()
	if due {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
}
