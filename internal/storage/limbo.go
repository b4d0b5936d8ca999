package storage

import (
	"math"
	"sync"
)

// limboBatch is how many entries Drain pops per lock hold.
const limboBatch = 32

// Limbo is a FIFO of objects waiting for quiescence (Fraser's limbo list):
// each object is deferred with a stamp drawn after it became unreachable,
// and is handed back once the owner's quiescence test passes that stamp —
// no reader that could still hold it remains. It is the one such queue in
// the engines: versions waiting for the GC watermark and finished
// transaction objects wait here. Only objects that are reused need it;
// unlinked skip-list nodes are left to the Go collector instead.
//
// Entries are kept in deferral order behind a head index, and the array is
// compacted only occasionally, so neither Defer nor Drain shifts it per
// call. Stamps need not be strictly ascending: Drain stops at the first
// entry that has not quiesced, which only delays the ones behind it.
//
// The zero value is an empty, unbounded Limbo.
type Limbo[T any] struct {
	// Cap bounds the entries held; zero means unbounded. Set it before the
	// Limbo is shared.
	Cap int

	mu   sync.Mutex
	q    []limboEntry[T]
	head int // q[head:] are waiting
}

type limboEntry[T any] struct {
	x     T
	stamp uint64
}

// Defer queues x with stamp. It returns false, keeping nothing, when the
// Limbo holds Cap entries: the caller then leaves x to the runtime's
// garbage collector.
//
//mvlint:noalloc
func (l *Limbo[T]) Defer(x T, stamp uint64) bool {
	l.mu.Lock()
	ok := l.Cap <= 0 || len(l.q)-l.head < l.Cap
	if ok {
		l.q = append(l.q, limboEntry[T]{x, stamp})
	}
	l.mu.Unlock()
	return ok
}

// Drain pops entries from the head while quiesced approves their stamp, up
// to max of them (max <= 0: no limit), and passes each to free. It returns
// how many it freed.
//
// quiesced is called under the Limbo's lock, after the entry was read, so
// its loads are ordered after whatever the deferring side did before Defer.
// free is called with the lock released: an owner may defer while holding
// a lock that its free path takes.
//
//mvlint:noalloc
func (l *Limbo[T]) Drain(quiesced func(stamp uint64) bool, max int, free func(T)) int {
	if max <= 0 {
		max = math.MaxInt
	}
	var batch [limboBatch]T
	done := 0
	for done < max {
		l.mu.Lock()
		h := l.head
		n := min(len(batch), max-done, len(l.q)-h)
		k := 0
		for k < n && quiesced(l.q[h+k].stamp) {
			batch[k] = l.q[h+k].x
			k++
		}
		clear(l.q[h : h+k])
		l.head = h + k
		if l.head == len(l.q) {
			l.q, l.head = l.q[:0], 0
		} else if l.head > 1024 && l.head > len(l.q)/2 {
			m := copy(l.q, l.q[l.head:])
			clear(l.q[m:])
			l.q, l.head = l.q[:m], 0
		}
		l.mu.Unlock()
		for _, x := range batch[:k] {
			free(x)
		}
		done += k
		if k < len(batch) {
			break
		}
	}
	return done
}

// Len returns the number of waiting entries.
func (l *Limbo[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.q) - l.head
}
