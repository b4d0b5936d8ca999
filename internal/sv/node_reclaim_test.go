package sv

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/iso"
	"repro/internal/storage"
)

func svInsert(t *testing.T, e *Engine, tbl *Table, k uint64) {
	t.Helper()
	tx := e.Begin(iso.ReadCommitted)
	if err := tx.Insert(tbl, testPayload(k, k)); err != nil {
		t.Fatalf("insert %d: %v", k, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit insert %d: %v", k, err)
	}
}

func svDelete(t *testing.T, e *Engine, tbl *Table, k uint64) {
	t.Helper()
	tx := e.Begin(iso.ReadCommitted)
	if _, err := tx.DeleteWhere(tbl, 0, k, nil); err != nil {
		t.Fatalf("delete %d: %v", k, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit delete %d: %v", k, err)
	}
}

// checkSVNodeAccounting asserts, once reclamation has drained, that every
// node ix's skip list ever created is either a live key's or was swept: no
// node is left marked, and none is reused. ix must be e's only ordered index.
func checkSVNodeAccounting(t *testing.T, e *Engine, ix *orderedIndex) {
	t.Helper()
	created, swept := ix.list.Created(), e.Stats().IndexNodesSwept
	t.Logf("live=%d marked=%d created=%d swept=%d", ix.list.Len(), ix.list.MarkedLen(), created, swept)
	if m := ix.list.MarkedLen(); m != 0 {
		t.Fatalf("%d nodes still marked after the final rounds", m)
	}
	if uint64(ix.list.Len())+swept != created {
		t.Fatalf("live %d + swept %d != created %d", ix.list.Len(), swept, created)
	}
}

// TestSVNodeChurnBounded: the 1V ordered index must also shed skip-list
// nodes when keys die — commit-time physical deletes drain the chain and
// the cooperative reclaim round sweeps the node.
func TestSVNodeChurnBounded(t *testing.T) {
	e, tbl := newOrderedTestEngine(t, 0)
	const (
		window = 100
		total  = 4000
	)
	for i := 0; i < total; i++ {
		svInsert(t, e, tbl, uint64(i))
		if i >= window {
			svDelete(t, e, tbl, uint64(i-window))
		}
	}
	// Drain: an explicit round sweeps whatever the cooperative ones left.
	e.ReclaimNodes(1 << 20)

	ix := tbl.indexes[0].(*orderedIndex)
	if keys := ix.list.Len(); keys > window+16 {
		t.Fatalf("live nodes = %d after churn, want ~%d: nodes are leaking", keys, window)
	}
	checkSVNodeAccounting(t, e, ix)

	// The live window reads back intact.
	tx := e.Begin(iso.ReadCommitted)
	keys := collectRange(t, tx, tbl, 0, total)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(keys) != window {
		t.Fatalf("scan found %d keys, want %d", len(keys), window)
	}
	for i, k := range keys {
		if k != uint64(total-window+i) {
			t.Fatalf("scan window wrong: %v...", keys[:8])
		}
	}
}

// TestSVNodeRevival: re-inserting a key whose node was marked (or already
// swept) must revive or recreate the node.
func TestSVNodeRevival(t *testing.T) {
	e, tbl := newOrderedTestEngine(t, 0)
	for round := 0; round < 50; round++ {
		k := uint64(7)
		svInsert(t, e, tbl, k)
		svDelete(t, e, tbl, k)
		e.ReclaimNodes(1 << 20) // sweep the marked node
		svInsert(t, e, tbl, k)  // revive (or recreate) it
		tx := e.Begin(iso.ReadCommitted)
		got := collectRange(t, tx, tbl, k, k)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != k {
			t.Fatalf("round %d: revived key reads %v, want [7]", round, got)
		}
		svDelete(t, e, tbl, k)
	}
	for i := 0; i < 3; i++ {
		e.ReclaimNodes(1 << 20)
	}
	ix := tbl.indexes[0].(*orderedIndex)
	if n := ix.list.Len(); n != 0 {
		t.Fatalf("live nodes = %d after final delete, want 0", n)
	}
}

// TestSVNodesCollected: once ReclaimNodes has swept a deleted key's node,
// the engine keeps no reference to it, and the Go collector frees it.
func TestSVNodesCollected(t *testing.T) {
	e, tbl := newOrderedTestEngine(t, 0)
	ix := tbl.indexes[0].(*orderedIndex)
	const keys = 256
	nodes := make([]weak.Pointer[storage.SkipNode[recordChain]], keys)
	for k := range uint64(keys) {
		svInsert(t, e, tbl, k)
		nodes[k] = weak.Make(ix.list.Get(k))
	}
	for k := range uint64(keys) {
		svDelete(t, e, tbl, k)
	}
	e.ReclaimNodes(1 << 20)
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

// TestSVScanReclaimChurnRace interleaves 1V range scans with concurrent
// deletion, reclamation, and revival under -race.
func TestSVScanReclaimChurnRace(t *testing.T) {
	e, tbl := newOrderedTestEngine(t, 250*time.Millisecond)
	const (
		stripes = 4
		domain  = 512
		iters   = 1200
	)
	var fail atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters && !fail.Load(); i++ {
				k := uint64((i%domain)*stripes + w)
				tx := e.Begin(iso.ReadCommitted)
				if err := tx.Insert(tbl, testPayload(k, k)); err != nil {
					tx.Abort()
					continue
				}
				if tx.Commit() != nil {
					continue
				}
				tx = e.Begin(iso.ReadCommitted)
				if _, err := tx.DeleteWhere(tbl, 0, k, nil); err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lo, hi := uint64(0), uint64(domain*stripes)
			for i := 0; i < iters/6 && !fail.Load(); i++ {
				var tx *Tx
				if r == 0 {
					tx = e.Begin(iso.ReadCommitted) // cursor stability: lock released at scan end
				} else {
					tx = e.BeginReadOnly()
				}
				prev := int64(-1)
				err := tx.ScanRange(tbl, 0, lo, hi, nil, func(rec *Record) bool {
					k := payloadKey(rec.Payload())
					if k > hi || int64(k) <= prev {
						t.Errorf("scan yielded key %d after %d (hi %d)", k, prev, hi)
						fail.Store(true)
						return false
					}
					prev = int64(k)
					return true
				})
				if err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(r)
	}
	wg.Wait()
}
