package mv

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"repro/internal/storage"
)

// churnEngine is an engine tuned for reclamation tests: GC after every
// transaction, background detector off.
func churnEngine(t *testing.T) (*Engine, *storage.Table) {
	t.Helper()
	e := NewEngine(Config{DeadlockInterval: -1, GCEvery: 1, GCQuota: 1 << 20})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "t",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Ordered: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, tbl
}

func insertKey(t *testing.T, e *Engine, tbl *storage.Table, k uint64) {
	t.Helper()
	tx := e.Begin(Pessimistic, ReadCommitted)
	if err := tx.Insert(tbl, testPayload(k, k)); err != nil {
		t.Fatalf("insert %d: %v", k, err)
	}
	mustCommit(t, tx)
}

func deleteKey(t *testing.T, e *Engine, tbl *storage.Table, k uint64) {
	t.Helper()
	tx := e.Begin(Pessimistic, ReadCommitted)
	if _, err := tx.DeleteWhere(tbl, 0, k, nil); err != nil {
		t.Fatalf("delete %d: %v", k, err)
	}
	mustCommit(t, tx)
}

// checkNodeAccounting asserts, once reclamation has drained, that every
// skip-list node ever created is either a live key's or was swept: no node
// is left marked, and none is reused.
func checkNodeAccounting(t *testing.T, e *Engine, ix *storage.OrderedIndex) {
	t.Helper()
	marked, created := ix.NodeStats()
	swept := e.Stats().IndexNodesSwept
	t.Logf("keys=%d marked=%d created=%d swept=%d", ix.Keys(), marked, created, swept)
	if marked != 0 {
		t.Fatalf("%d nodes still marked after the final rounds", marked)
	}
	if uint64(ix.Keys())+swept != created {
		t.Fatalf("keys %d + swept %d != created %d", ix.Keys(), swept, created)
	}
}

// TestOrderedNodeChurnBounded is the acceptance churn test: a delete-heavy,
// ever-shifting key domain must leave the ordered index holding O(live keys)
// skip-list nodes, not one node per key ever inserted.
func TestOrderedNodeChurnBounded(t *testing.T) {
	e, tbl := churnEngine(t)
	const (
		window = 100
		total  = 4000
	)
	for i := 0; i < total; i++ {
		insertKey(t, e, tbl, uint64(i))
		if i >= window {
			deleteKey(t, e, tbl, uint64(i-window))
		}
	}
	// Drain: dummy transactions advance the watermark past the last deletes
	// while GC rounds mark and sweep the nodes.
	for i := 0; i < 8; i++ {
		tx := e.Begin(Optimistic, SnapshotIsolation)
		mustCommit(t, tx)
		e.CollectGarbage(1 << 20)
	}

	ix := tbl.Index(0).(*storage.OrderedIndex)
	if keys := ix.Keys(); keys > window+16 {
		t.Fatalf("Keys() = %d after churn, want ~%d (live window): nodes are leaking", keys, window)
	}
	checkNodeAccounting(t, e, ix)

	// Deleted keys are gone; live window reads correctly across schemes.
	tx := e.Begin(Optimistic, SnapshotIsolation)
	keys := collectRange(t, tx, tbl, 0, total)
	if len(keys) != window {
		t.Fatalf("scan found %d keys, want %d", len(keys), window)
	}
	for i, k := range keys {
		if k != uint64(total-window+i) {
			t.Fatalf("scan keys = %v..., want the last %d", keys[:min(8, len(keys))], window)
		}
	}
	mustCommit(t, tx)
}

// TestOrderedNodeRevival checks GetOrCreate revival of a concurrently
// deleted key: after a key's node is marked (and even swept), re-inserting
// the key must produce a fresh, reachable chain.
func TestOrderedNodeRevival(t *testing.T) {
	e, tbl := churnEngine(t)
	ix := tbl.Index(0).(*storage.OrderedIndex)
	for round := 0; round < 50; round++ {
		k := uint64(7) // same key dies and revives every round
		insertKey(t, e, tbl, k)
		deleteKey(t, e, tbl, k)
		// A couple of GC rounds: mark, then sweep.
		e.CollectGarbage(1 << 20)
		e.CollectGarbage(1 << 20)
		// Revive: the key must be insertable and readable again.
		insertKey(t, e, tbl, k)
		tx := e.Begin(Optimistic, SnapshotIsolation)
		if keys := collectRange(t, tx, tbl, k, k); len(keys) != 1 {
			t.Fatalf("round %d: revived key reads %v, want [7]", round, keys)
		}
		mustCommit(t, tx)
		deleteKey(t, e, tbl, k)
	}
	if ix.Keys() != 0 {
		// The final delete may not have been collected yet; drain and recheck.
		for i := 0; i < 6; i++ {
			tx := e.Begin(Optimistic, SnapshotIsolation)
			mustCommit(t, tx)
			e.CollectGarbage(1 << 20)
		}
	}
	if keys := ix.Keys(); keys != 0 {
		t.Fatalf("Keys() = %d after final delete, want 0", keys)
	}
}

// TestOrderedNodesCollected: once GC rounds have swept a deleted key's node,
// the engine keeps no reference to it, and the Go collector frees it.
func TestOrderedNodesCollected(t *testing.T) {
	e, tbl := churnEngine(t)
	ix := tbl.Index(0).(*storage.OrderedIndex)
	const keys = 256
	nodes := make([]weak.Pointer[storage.Bucket], keys)
	for k := range uint64(keys) {
		insertKey(t, e, tbl, k)
		nodes[k] = weak.Make(ix.Lookup(k)) // the bucket lives inside the node
	}
	for k := range uint64(keys) {
		deleteKey(t, e, tbl, k)
	}
	for range 4 {
		mustCommit(t, e.Begin(Optimistic, SnapshotIsolation))
		e.CollectGarbage(1 << 20)
	}
	if n := e.Stats().IndexNodesSwept; n != keys {
		t.Fatalf("swept %d nodes, want %d", n, keys)
	}
	runtime.GC()
	live := 0
	for _, w := range nodes {
		if w.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Fatalf("%d of %d swept nodes survived a collection", live, keys)
	}
}

// TestScanRangeReclaimChurnRace interleaves range cursors with concurrent
// key deletion, reclamation, and revival; -race checks the sweep's
// publication protocol, and the assertions check cursor correctness
// (ascending, in-range keys only).
func TestScanRangeReclaimChurnRace(t *testing.T) {
	for _, scheme := range []Scheme{Optimistic, Pessimistic} {
		t.Run(scheme.String(), func(t *testing.T) {
			e := NewEngine(Config{DeadlockInterval: -1, GCEvery: 4, GCQuota: 1 << 16})
			defer e.Close()
			tbl, err := e.CreateTable(storage.TableSpec{
				Name:    "t",
				Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Ordered: true}},
			})
			if err != nil {
				t.Fatal(err)
			}
			const (
				stripes = 4    // writer-private key stripes
				domain  = 1024 // keys per stripe cycle
				iters   = 1500
			)
			var fail atomic.Bool
			var wg sync.WaitGroup
			// Writers: each owns keys k with k%stripes == w; insert then
			// delete, cycling the domain (constant revival of node keys).
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters && !fail.Load(); i++ {
						k := uint64((i%domain)*stripes + w)
						tx := e.Begin(scheme, ReadCommitted)
						if err := tx.Insert(tbl, testPayload(k, k)); err != nil {
							tx.Abort()
							continue
						}
						if tx.Commit() != nil {
							continue
						}
						tx = e.Begin(scheme, ReadCommitted)
						if _, err := tx.DeleteWhere(tbl, 0, k, nil); err != nil {
							tx.Abort()
							continue
						}
						tx.Commit()
					}
				}(w)
			}
			// Scanners: snapshot transactions (registered and read-only
			// fast-lane) walking the whole domain; keys must ascend and stay
			// in range.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					lo, hi := uint64(0), uint64(domain*stripes)
					for i := 0; i < iters/4 && !fail.Load(); i++ {
						var tx *Tx
						if r == 0 {
							tx = e.Begin(Optimistic, SnapshotIsolation)
						} else {
							tx = e.BeginReadOnly()
						}
						prev := int64(-1)
						err := tx.ScanRange(tbl, 0, lo, hi, nil, func(v *storage.Version) bool {
							k := payloadKey(v.Payload())
							if k > hi || int64(k) <= prev {
								t.Errorf("scan yielded key %d after %d (hi %d)", k, prev, hi)
								fail.Store(true)
								return false
							}
							prev = int64(k)
							return true
						})
						if err != nil && !errors.Is(err, ErrAborted) {
							t.Errorf("scan: %v", err)
							fail.Store(true)
						}
						tx.Commit()
					}
				}(r)
			}
			wg.Wait()
		})
	}
}

// TestInsertDepsFailureDoomsTx: since Insert links the new version before
// consulting scan locks, a failed lock check must doom the transaction — a
// caller that ignores the error and commits anyway must get ErrAborted, not
// a durable row the API reported as failed.
func TestInsertDepsFailureDoomsTx(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1})
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Ordered: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A serializable pessimistic scan of an empty range holds a range lock.
	scanner := e.Begin(Pessimistic, Serializable)
	if keys := collectRange(t, scanner, tbl, 0, 100); len(keys) != 0 {
		t.Fatalf("unexpected rows: %v", keys)
	}
	// The inserter already refuses wait-for dependencies (WaitWaitFors with
	// none pending closes the door), so inserting into the locked range
	// fails — after the version was linked, so the transaction must be
	// doomed.
	ins := e.Begin(Pessimistic, ReadCommitted)
	if err := ins.T.WaitWaitFors(); err != nil {
		t.Fatal(err)
	}
	if err := ins.Insert(tbl, testPayload(5, 5)); err != ErrWaitForRefused {
		t.Fatalf("insert into locked range: err = %v, want ErrWaitForRefused", err)
	}
	if err := ins.Commit(); err != ErrAborted {
		t.Fatalf("commit after failed insert: err = %v, want ErrAborted", err)
	}
	mustCommit(t, scanner)
	// The failed insert must not be visible.
	tx := e.Begin(Optimistic, SnapshotIsolation)
	if keys := collectRange(t, tx, tbl, 0, 100); len(keys) != 0 {
		t.Fatalf("failed insert became visible: %v", keys)
	}
	mustCommit(t, tx)
}

// TestRangeLockPublicationRace is the regression test for the range-lock
// publication/phantom window: inserters must never miss a just-acquired
// range lock (RangeLockTable.Acquire publishes the active counter inside
// the critical section) AND serializable scanners must never miss an
// already-linked insert (Insert links before consulting scan locks). The
// invariant: a writer inserts or deletes a two-row pair atomically, so a
// serializable MV/L scan must always see an even number of pair rows.
func TestRangeLockPublicationRace(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1, GCEvery: 8, GCQuota: 1 << 16})
	defer e.Close()
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Ordered: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		pairs = 4
		iters = 800
	)
	var fail atomic.Bool
	var wg sync.WaitGroup
	// Pair writers: writer p owns keys {2p, 2p+1}; each iteration inserts
	// both in one transaction, then deletes both in one transaction.
	for p := 0; p < pairs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			k0, k1 := uint64(2*p), uint64(2*p+1)
			for i := 0; i < iters && !fail.Load(); i++ {
				tx := e.Begin(Pessimistic, ReadCommitted)
				if tx.Insert(tbl, testPayload(k0, 1)) != nil || tx.Insert(tbl, testPayload(k1, 1)) != nil {
					tx.Abort()
					continue
				}
				if tx.Commit() != nil {
					continue
				}
				for !fail.Load() {
					tx = e.Begin(Pessimistic, ReadCommitted)
					n0, err0 := tx.DeleteWhere(tbl, 0, k0, nil)
					if err0 != nil {
						tx.Abort()
						continue
					}
					n1, err1 := tx.DeleteWhere(tbl, 0, k1, nil)
					if err1 != nil {
						tx.Abort()
						continue
					}
					if n0 != 1 || n1 != 1 {
						t.Errorf("pair %d: deleted %d+%d rows, want 1+1", p, n0, n1)
						fail.Store(true)
					}
					if tx.Commit() == nil {
						break
					}
				}
			}
		}(p)
	}
	// Serializable pessimistic scanners: range-lock the whole domain and
	// count each pair's rows; an odd pair is a phantom.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := make([]int, pairs)
			for i := 0; i < iters && !fail.Load(); i++ {
				for j := range counts {
					counts[j] = 0
				}
				tx := e.Begin(Pessimistic, Serializable)
				err := tx.ScanRange(tbl, 0, 0, 2*pairs-1, nil, func(v *storage.Version) bool {
					counts[payloadKey(v.Payload())/2]++
					return true
				})
				if err != nil {
					tx.Abort()
					continue
				}
				if tx.Commit() != nil {
					continue
				}
				for j, c := range counts {
					if c%2 != 0 {
						t.Errorf("pair %d: scan saw %d rows (phantom: insert/delete is pairwise-atomic)", j, c)
						fail.Store(true)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPinOverflowCollect: with every reader-pin slot taken, read-only scans
// cover themselves with a registered transaction instead, and node
// reclamation stays safe (-race) and bounded under ordered
// delete-and-reinsert churn and those concurrent range scans. GC rounds run
// both cooperatively, every few transactions, and back to back from a
// goroutine of their own.
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
		// At least one scan, so a read-only begin meets the full table even
		// if the writers finish first.
		for i := 0; i == 0 || !stop.Load() && !fail.Load(); i++ {
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
		t.Fatal("PinOverflows = 0: read-only begins never overflowed the full pin table")
	}
	ix := tbl.Index(0).(*storage.OrderedIndex)
	if keys := ix.Keys(); keys != writers*window {
		t.Fatalf("Keys() = %d, want %d (the live windows)", keys, writers*window)
	}
	checkNodeAccounting(t, e, ix)
}
