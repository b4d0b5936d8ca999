package sv

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stripeOf returns the locks of the given bucket slots of ix and the one
// wait stripe they all share; it fails unless they do.
func stripeOf(t *testing.T, ix *hashIndex, slots ...uint64) ([]*keyLock, *waitStripe) {
	t.Helper()
	var ls []*keyLock
	var ws *waitStripe
	for _, i := range slots {
		b, s := ix.bucketAt(i)
		if ws != nil && s != ws {
			t.Fatalf("buckets %v do not share a wait stripe", slots)
		}
		ls, ws = append(ls, &b.lock), s
	}
	return ls, ws
}

// TestWaitStripeSharedWakeup: locks A and B sit in buckets i and
// i+waitStripes of one hash index, so their waiters sleep on one stripe.
// Two goroutines churn B, so B's releases broadcast on the stripe and wake
// A's waiter again and again; each time it must mark A and sleep again. A
// waiter on A must still get A soon after A's release, whatever B is doing,
// and long before the lock timeout.
func TestWaitStripeSharedWakeup(t *testing.T) {
	const timeout = 10 * time.Second
	const soon = 2 * time.Second
	_, tbl := newTestEngine(t, timeout)
	ls, ws := stripeOf(t, tbl.hashIxs[0], 3, 3+waitStripes)
	a, b := ls[0], ls[1]

	var stop atomic.Bool
	var churnErrs, bMarked atomic.Int64
	var churn sync.WaitGroup
	for g := uint64(0); g < 2; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := uint64(1); !stop.Load(); i++ {
				txid := (g+1)<<32 | i
				if err := b.acquireX(txid, 0, timeout, ws); err != nil {
					churnErrs.Add(1)
					return
				}
				runtime.Gosched()
				if b.state.Load()&waitBit != 0 {
					bMarked.Add(1)
				}
				b.releaseBulk(txid, 0, true, ws)
			}
		}()
	}
	defer func() {
		stop.Store(true)
		churn.Wait()
		if n := churnErrs.Load(); n != 0 {
			t.Errorf("%d of B's churners timed out", n)
		}
	}()

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		if err := a.acquireX(1, 0, timeout, ws); err != nil {
			t.Fatalf("round %d: uncontended acquire of A: %v", round, err)
		}
		got := make(chan error, 1)
		go func() { got <- a.acquireX(2, 0, timeout, ws) }()
		for a.state.Load()&waitBit == 0 {
			runtime.Gosched() // until A's waiter is asleep
		}
		time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
		released := time.Now()
		a.releaseBulk(1, 0, true, ws)
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("round %d: waiter on A: %v", round, err)
			}
		case <-time.After(soon):
			t.Fatalf("round %d: waiter on A not woken %v after A's release", round, time.Since(released))
		}
		a.releaseBulk(2, 0, true, ws)
	}
	if bMarked.Load() == 0 {
		t.Fatal("no release of B found a waiter: the stripe was never shared under load")
	}
}

// TestWaitStripeStress: many goroutines take shared and exclusive holds on
// a few locks spread over two wait stripes, one or two locks at a time in
// ascending order (so no wait cycle can form), releasing through both
// release paths. With a lock timeout far above any real wait no acquisition
// may time out, and every lock must admit one writer or only readers.
func TestWaitStripeStress(t *testing.T) {
	const timeout = 30 * time.Second
	workers, iters := 16, 400
	if testing.Short() {
		iters = 100
	}
	_, tbl := newTestEngine(t, timeout)
	ix := tbl.hashIxs[0]
	slots := []uint64{0, waitStripes, 2 * waitStripes, 1, 1 + waitStripes}
	locks := make([]*keyLock, len(slots))
	stripes := make([]*waitStripe, len(slots))
	for i, s := range slots {
		b, ws := ix.bucketAt(s)
		locks[i], stripes[i] = &b.lock, ws
	}
	occ := make([]atomic.Int64, len(slots)) // readers inside, or -1 for a writer

	var timeouts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				txid := uint64(g+1)<<32 | uint64(i+1)
				first := rng.Intn(len(locks))
				pick := []int{first}
				if second := rng.Intn(len(locks)); second > first {
					pick = append(pick, second)
				}
				excl := make([]bool, len(pick))
				n := 0
				for j, li := range pick {
					excl[j] = rng.Intn(3) == 0
					var err error
					if excl[j] {
						err = locks[li].acquireX(txid, 0, timeout, stripes[li])
					} else {
						err = locks[li].acquireS(txid, timeout, stripes[li])
					}
					if err != nil {
						timeouts.Add(1)
						break
					}
					enter(t, &occ[li], excl[j])
					n++
				}
				runtime.Gosched()
				for j := n - 1; j >= 0; j-- {
					li := pick[j]
					leave(&occ[li], excl[j])
					switch {
					case excl[j]:
						locks[li].releaseBulk(txid, 0, true, stripes[li])
					case rng.Intn(2) == 0:
						locks[li].releaseS(stripes[li])
					default:
						locks[li].releaseBulk(txid, 1, false, stripes[li])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := timeouts.Load(); n != 0 {
		t.Fatalf("%d acquisitions timed out with a %v lock timeout", n, timeout)
	}
	for i, l := range locks {
		if s := l.state.Load() &^ waitBit; s != 0 {
			t.Fatalf("lock %d state %#x after every hold was released", i, s)
		}
	}
}

// enter records a hold inside a lock's occupancy and checks its mode.
func enter(t *testing.T, occ *atomic.Int64, excl bool) {
	if excl {
		if !occ.CompareAndSwap(0, -1) {
			t.Errorf("exclusive hold granted with occupancy %d", occ.Load())
		}
		return
	}
	if occ.Add(1) <= 0 {
		t.Error("shared hold granted while a writer is inside")
	}
}

// leave undoes enter.
func leave(occ *atomic.Int64, excl bool) {
	if excl {
		occ.Store(0)
		return
	}
	occ.Add(-1)
}
