package mv

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// TestNodeFreeWatermarkPin: MV frees a swept skip-list node on the watermark
// alone. A reader pin published before the node's sweep stamp — an
// in-flight GC round's, here — keeps the node out of the reuse pool; a pin
// published after the stamp does not.
func TestNodeFreeWatermarkPin(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1, GCEvery: -1})
	defer e.Close()
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Ordered: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := tbl.Index(0).(*storage.OrderedIndex)
	advance := func() { mustCommit(t, e.Begin(Optimistic, SnapshotIsolation)) }
	churn := func(lo uint64) {
		for k := lo; k < lo+10; k++ {
			insertKey(t, e, tbl, k)
			deleteKey(t, e, tbl, k)
		}
	}
	nodes := func() (dead int, freed uint64) {
		_, dead, _, _, _, freed = ix.NodeStats()
		return dead, freed
	}

	// Pinned before the sweep: the round that unlinks and sweeps the nodes
	// stamps them at or above the pin, so no watermark frees them while it
	// is held.
	churn(0)
	slot, cover := e.pin()
	e.CollectGarbage(1 << 20)
	if dead, _ := nodes(); dead != 10 {
		t.Fatalf("dead = %d after the sweep, want 10", dead)
	}
	for range 3 {
		advance()
		e.CollectGarbage(1 << 20)
	}
	if dead, freed := nodes(); dead != 10 || freed != 0 {
		t.Fatalf("dead = %d, freed = %d under a pin older than the sweep, want 10, 0", dead, freed)
	}
	e.unpin(slot, cover)
	advance()
	e.CollectGarbage(1 << 20)
	if dead, freed := nodes(); dead != 0 || freed != 10 {
		t.Fatalf("dead = %d, freed = %d after the pin left, want 0, 10", dead, freed)
	}

	// Pinned after the sweep stamp: the pin does not hold the nodes.
	churn(20)
	e.CollectGarbage(1 << 20)
	advance()
	slot, cover = e.pin()
	e.CollectGarbage(1 << 20)
	if dead, freed := nodes(); dead != 0 || freed != 20 {
		t.Fatalf("dead = %d, freed = %d under a pin newer than the sweep, want 0, 20", dead, freed)
	}
	e.unpin(slot, cover)
}

// TestPinOverflowCollect: with every reader-pin slot taken, GC rounds cover
// themselves with a registered transaction instead, and node reclamation
// stays safe (-race) and bounded under ordered delete-and-reinsert churn
// and concurrent range scans. Rounds run both cooperatively, every few
// transactions, and back to back from a goroutine of their own.
func TestPinOverflowCollect(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1, GCEvery: 4})
	defer e.Close()
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Ordered: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the table with pins above any timestamp: every slot is taken,
	// yet no pin holds the watermark back.
	for i := e.pins.Slots(); i > 0; i-- {
		if e.pins.Acquire(1<<62) < 0 {
			t.Fatal("pin table full before every slot was taken")
		}
	}
	const (
		writers = 2
		window  = 64 // live keys per writer
		iters   = 1500
	)
	var fail, stop atomic.Bool
	var wg, bg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters && !fail.Load(); i++ {
				tx := e.Begin(Pessimistic, ReadCommitted)
				if err := tx.Insert(tbl, testPayload(uint64(i*writers+w), 1)); err != nil {
					tx.Abort()
					continue
				}
				if i >= window {
					if _, err := tx.DeleteWhere(tbl, 0, uint64((i-window)*writers+w), nil); err != nil {
						tx.Abort()
						continue
					}
				}
				tx.Commit()
			}
		}(w)
	}
	bg.Add(2)
	go func() {
		defer bg.Done()
		for !stop.Load() {
			e.CollectGarbage(1 << 16)
		}
	}()
	go func() {
		defer bg.Done()
		for !stop.Load() && !fail.Load() {
			tx := e.BeginReadOnly()
			prev := int64(-1)
			err := tx.ScanRange(tbl, 0, 0, writers*iters, nil, func(v *storage.Version) bool {
				k := int64(payloadKey(v.Payload()))
				if k <= prev {
					t.Errorf("scan yielded key %d after %d", k, prev)
					fail.Store(true)
					return false
				}
				prev = k
				return true
			})
			if err != nil && !errors.Is(err, ErrAborted) {
				t.Errorf("scan: %v", err)
				fail.Store(true)
			}
			tx.Commit()
		}
	}()
	wg.Wait()
	stop.Store(true)
	bg.Wait()
	for range 4 {
		mustCommit(t, e.Begin(Optimistic, SnapshotIsolation))
		e.CollectGarbage(1 << 20)
	}

	if n := e.Stats().PinOverflows; n == 0 {
		t.Fatal("PinOverflows = 0: GC rounds never overflowed the full pin table")
	}
	ix := tbl.Index(0).(*storage.OrderedIndex)
	marked, dead, pooled, created, _, freed := ix.NodeStats()
	t.Logf("keys=%d marked=%d dead=%d pooled=%d created=%d freed=%d", ix.Keys(), marked, dead, pooled, created, freed)
	if keys := ix.Keys(); keys != writers*window {
		t.Fatalf("Keys() = %d, want %d (the live windows)", keys, writers*window)
	}
	// A preempted round holds the watermark back for its time slice, so how
	// many nodes a burst allocates depends on scheduling; what must hold is
	// that nodes were reused and every swept node was freed in the end.
	if created >= writers*iters || freed == 0 {
		t.Fatalf("created %d nodes for %d inserts, freed %d: no reuse", created, writers*iters, freed)
	}
	if marked != 0 || dead != 0 {
		t.Fatalf("marked=%d dead=%d after the final rounds, want 0, 0", marked, dead)
	}
}
