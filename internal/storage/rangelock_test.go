package storage

import (
	"sync"
	"testing"
	"time"
)

// TestRangeLockTable: holder reporting, and the conflict rule — two entries
// conflict only when they belong to different transactions, their ranges
// overlap (inclusively) and at least one is exclusive. A conflicting request
// with timeout 0 fails at once, and one that waits out its timeout reports
// false; neither leaves an entry behind or changes Active().
func TestRangeLockTable(t *testing.T) {
	t.Run("holders", func(t *testing.T) {
		var rl RangeLockTable
		if rl.Active() != 0 {
			t.Fatal("fresh table has active locks")
		}
		for _, l := range []rangeLock{{10, 20, 1, false}, {15, 30, 2, false}, {40, 50, 1, false}} {
			if !rl.Acquire(l.lo, l.hi, l.txid, false, 0) {
				t.Fatalf("shared Acquire%v waited", l)
			}
		}
		if rl.Active() != 3 {
			t.Fatalf("Active = %d, want 3", rl.Active())
		}
		holders := rl.AppendHolders(nil, 18)
		if len(holders) != 2 {
			t.Fatalf("holders(18) = %v, want two", holders)
		}
		if h := rl.AppendHolders(nil, 35); len(h) != 0 {
			t.Fatalf("holders(35) = %v, want none", h)
		}
		if h := rl.AppendHolders(nil, 40); len(h) != 1 || h[0] != 1 {
			t.Fatalf("holders(40) = %v, want [1]", h)
		}
		rl.Release(15, 30, 2, false)
		if h := rl.AppendHolders(nil, 18); len(h) != 1 || h[0] != 1 {
			t.Fatalf("holders(18) after release = %v, want [1]", h)
		}
		rl.Release(99, 99, 7, false) // not held: no-op
		rl.Release(10, 20, 1, true)  // held, but shared: no-op
		if rl.Active() != 2 {
			t.Fatalf("Active = %d, want 2", rl.Active())
		}
	})

	const S, X = false, true
	cases := []struct {
		name      string
		held, req rangeLock
		conflict  bool
	}{
		{"S/S overlap", rangeLock{10, 20, 1, S}, rangeLock{15, 30, 2, S}, false},
		{"S/S same range", rangeLock{10, 20, 1, S}, rangeLock{10, 20, 2, S}, false},
		{"S/X overlap", rangeLock{10, 20, 1, S}, rangeLock{15, 15, 2, X}, true},
		{"X/S overlap", rangeLock{15, 15, 1, X}, rangeLock{10, 20, 2, S}, true},
		{"X/X overlap", rangeLock{10, 20, 1, X}, rangeLock{15, 30, 2, X}, true},
		{"X/X shared endpoint", rangeLock{10, 20, 1, X}, rangeLock{20, 20, 2, X}, true},
		{"S/X disjoint", rangeLock{10, 20, 1, S}, rangeLock{21, 30, 2, X}, false},
		{"X/S disjoint", rangeLock{10, 20, 1, X}, rangeLock{0, 9, 2, S}, false},
		{"X/X disjoint", rangeLock{10, 20, 1, X}, rangeLock{21, 21, 2, X}, false},
		{"own X/X", rangeLock{10, 20, 1, X}, rangeLock{10, 20, 1, X}, false},
		{"own X/S", rangeLock{10, 20, 1, X}, rangeLock{15, 15, 1, S}, false},
		{"own S/X upgrade", rangeLock{10, 20, 1, S}, rangeLock{15, 15, 1, X}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var rl RangeLockTable
			h, r := c.held, c.req
			if !rl.Acquire(h.lo, h.hi, h.txid, h.excl, 0) {
				t.Fatal("first Acquire on an empty table failed")
			}
			start := time.Now()
			got := rl.Acquire(r.lo, r.hi, r.txid, r.excl, 0)
			if got == c.conflict {
				t.Fatalf("Acquire(%v) with %v held = %v, want %v", r, h, got, !c.conflict)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("timeout-0 Acquire took %v", d)
			}
			want := 2
			if c.conflict {
				want = 1
			}
			checkRangeTable(t, &rl, want)
			if got {
				rl.Release(r.lo, r.hi, r.txid, r.excl)
			}
			rl.Release(h.lo, h.hi, h.txid, h.excl)
			checkRangeTable(t, &rl, 0)
		})
	}

	t.Run("timed-out waiter", func(t *testing.T) {
		var rl RangeLockTable
		rl.Acquire(1, 5, 1, false, 0)
		start := time.Now()
		if rl.Acquire(3, 3, 2, true, 20*time.Millisecond) {
			t.Fatal("exclusive request over a shared entry succeeded")
		}
		if d := time.Since(start); d < 20*time.Millisecond {
			t.Fatalf("gave up after %v, before its 20ms timeout", d)
		}
		checkRangeTable(t, &rl, 1)
		if h := rl.AppendHolders(nil, 3); len(h) != 1 || h[0] != 1 {
			t.Fatalf("holders(3) = %v, want [1]", h)
		}
		rl.Release(1, 5, 1, false)
		if !rl.Acquire(3, 3, 2, true, 0) {
			t.Fatal("exclusive request failed on a drained table")
		}
		checkRangeTable(t, &rl, 1)
	})
}

// checkRangeTable fails unless the table holds n entries and its two
// counters agree with them.
func checkRangeTable(t *testing.T, rl *RangeLockTable, n int) {
	t.Helper()
	if entries, excl, active, exclCount := rangeTableState(rl); entries != n || active != n || exclCount != excl {
		t.Fatalf("%d entries (%d exclusive), Active()=%d, excl=%d; want %d entries",
			entries, excl, active, exclCount, n)
	}
}

// rangeTableState reads, in one critical section, the table's entries, how
// many of them are exclusive, and its active and exclusive counters.
func rangeTableState(rl *RangeLockTable) (entries, excl, active, exclCount int) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	for _, l := range rl.locks {
		if l.excl {
			excl++
		}
	}
	return len(rl.locks), excl, rl.Active(), rl.excl
}

// TestRangeLockReleaseNoSpuriousWakeup: releasing a range lock that is not
// held must not broadcast to waiters — nothing they could be waiting on has
// changed, and at high MPL the storm of spurious wakeups (every cursor-
// stability release re-woke every waiter) is pure overhead.
func TestRangeLockReleaseNoSpuriousWakeup(t *testing.T) {
	var rl RangeLockTable
	if !rl.Acquire(1, 1, 1, true, time.Second) {
		t.Fatal("Acquire on an empty table failed")
	}

	// A second transaction blocks on the conflicting range and parks on
	// waitCh.
	acquired := make(chan bool, 1)
	go func() {
		acquired <- rl.Acquire(1, 1, 2, true, 2*time.Second)
	}()
	var ch chan struct{}
	for i := 0; i < 2000; i++ {
		rl.mu.Lock()
		ch = rl.waitCh
		rl.mu.Unlock()
		if ch != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if ch == nil {
		t.Fatal("waiter never parked")
	}

	// Releasing locks that are NOT held must leave the wait channel alone.
	rl.Release(5, 5, 99, false) // wrong range, wrong owner
	rl.Release(1, 1, 2, true)   // right range, non-holder
	rl.Release(1, 1, 1, false)  // right owner, wrong mode
	rl.mu.Lock()
	same := rl.waitCh == ch
	rl.mu.Unlock()
	if !same {
		t.Fatal("release of an unheld lock broadcast to waiters")
	}
	select {
	case <-ch:
		t.Fatal("wait channel was closed by an unheld release")
	case ok := <-acquired:
		t.Fatalf("waiter returned early: %v", ok)
	default:
	}

	// A real release drains the entry and wakes the waiter.
	rl.Release(1, 1, 1, true)
	select {
	case ok := <-acquired:
		if !ok {
			t.Fatal("waiter failed after real release")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter was not woken by the real release")
	}
	rl.Release(1, 1, 2, true)
	checkRangeTable(t, &rl, 0)
}

// TestRangeLockActivePublication is the regression test for the Acquire
// publication race: the active counter must change inside the critical
// section, so any observer holding the mutex sees count and table in
// agreement — an inserter that reads Active()==0 is then guaranteed no
// fully-acquired lock exists, and one that reads Active()>0 finds the
// holders under the mutex. (The old code incremented after Unlock, leaving
// a window where the lock was in the table but invisible to the fast path.)
// Half the workers take exclusive entries, so shared and exclusive requests
// both wait and wake, and the exclusive count must agree with the table
// too.
func TestRangeLockActivePublication(t *testing.T) {
	var rl RangeLockTable
	var workers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			excl := w%2 == 1
			for i := 0; i < 3000; i++ {
				lo := uint64(i % 16)
				if !rl.Acquire(lo, lo+4, uint64(w+1), excl, 10*time.Second) {
					t.Errorf("worker %d: Acquire timed out", w)
					return
				}
				rl.AppendHolders(nil, lo+2)
				rl.Release(lo, lo+4, uint64(w+1), excl)
			}
		}(w)
	}
	// Checker: under the mutex, the counters and the table must agree.
	checker := make(chan struct{})
	go func() {
		defer close(checker)
		for {
			select {
			case <-done:
				return
			default:
			}
			n, nx, a, x := rangeTableState(&rl)
			if a != n || x != nx {
				t.Errorf("active=%d excl=%d but %d locks (%d exclusive) in table", a, x, n, nx)
				return
			}
		}
	}()
	workers.Wait()
	close(done)
	<-checker
	checkRangeTable(t, &rl, 0)
}

// TestBucketLockCountPublication: same invariant for the bucket-lock table —
// LockCount changes inside the holder-list critical section.
func TestBucketLockCountPublication(t *testing.T) {
	blt := NewBucketLockTable()
	var b Bucket
	var workers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 3000; i++ {
				blt.Acquire(&b, uint64(w+1))
				blt.AppendHolders(nil, &b)
				blt.Release(&b, uint64(w+1))
			}
		}(w)
	}
	checker := make(chan struct{})
	go func() {
		defer close(checker)
		s := blt.shard(&b)
		for {
			select {
			case <-done:
				return
			default:
			}
			s.mu.Lock()
			c, n := b.LockCount(), len(s.m[&b])
			s.mu.Unlock()
			if c != n {
				t.Errorf("LockCount=%d but %d holders listed", c, n)
				return
			}
		}
	}()
	workers.Wait()
	close(done)
	<-checker
	if b.LockCount() != 0 {
		t.Fatalf("end LockCount = %d", b.LockCount())
	}
}
