package mv

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// Non-unique secondary ordered index tests: many rows share one secondary
// key (the row's group, derived from its value), so one skip-list node
// carries a chain of versions of DISTINCT records, duplicate chains grow
// and drain as updates migrate rows between groups, and the PR 4 node
// reclamation protocol must cope with nodes whose chains refill from other
// rows while they are marked. This closes the roadmap's "secondary ordered
// indexes with non-unique keys at scale — work but untested" note.

const secGroups = 4

// secGroupKey maps a payload to its group: a deliberately tiny key space so
// chains hold many rows.
func secGroupKey(p []byte) uint64 { return payloadVal(p) % secGroups }

func secondaryEngine(t *testing.T) (*Engine, *storage.Table) {
	t.Helper()
	e := NewEngine(Config{GCEvery: 1, GCQuota: 1 << 20})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "t",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Buckets: 1 << 10},
			{Name: "grp", Key: secGroupKey, Ordered: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, tbl
}

// TestSecondaryDuplicateChains: sequential sanity for the non-unique index
// shape — rows pile onto one secondary key, scans see each row exactly
// once, and updates relocate rows between duplicate chains.
func TestSecondaryDuplicateChains(t *testing.T) {
	e, tbl := secondaryEngine(t)
	const rows = 64
	for k := uint64(0); k < rows; k++ {
		e.LoadRow(tbl, testPayload(k, k)) // group k%4
	}
	tx := e.Begin(Optimistic, SnapshotIsolation)
	perGroup := make(map[uint64]int)
	err := tx.ScanRange(tbl, 1, 0, secGroups-1, nil, func(v *storage.Version) bool {
		perGroup[secGroupKey(v.Payload())]++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := uint64(0); g < secGroups; g++ {
		if perGroup[g] != rows/secGroups {
			t.Fatalf("group %d holds %d rows, want %d (per-group: %v)", g, perGroup[g], rows/secGroups, perGroup)
		}
	}
	mustCommit(t, tx)

	// Move every row of group 0 into group 1: chain 0 drains, chain 1
	// doubles.
	tx = e.Begin(Pessimistic, ReadCommitted)
	moved := 0
	for k := uint64(0); k < rows; k += secGroups {
		n, err := tx.UpdateWhere(tbl, 0, k, nil, func(old []byte) []byte {
			return testPayload(payloadKey(old), payloadVal(old)+1)
		})
		if err != nil {
			t.Fatal(err)
		}
		moved += n
	}
	if moved != rows/secGroups {
		t.Fatalf("moved %d rows", moved)
	}
	mustCommit(t, tx)

	tx = e.Begin(Optimistic, SnapshotIsolation)
	count := func(g uint64) int {
		n := 0
		if err := tx.Scan(tbl, 1, g, nil, func(*storage.Version) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if g0, g1 := count(0), count(1); g0 != 0 || g1 != 2*rows/secGroups {
		t.Fatalf("after migration: group0=%d group1=%d", g0, g1)
	}
	mustCommit(t, tx)
}

// drainUntil runs garbage collection rounds, each behind an empty
// transaction that advances the clock, until done holds or a deadline
// passes. A fixed number of rounds is not enough: a reader pin held across
// them (the background deadlock detector pins its walk's read time, and
// under CPU load its goroutine can be descheduled mid-walk) keeps the
// watermark below the last deletes until the pin's holder runs again.
func drainUntil(t *testing.T, e *Engine, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !done() && time.Now().Before(deadline) {
		tx := e.Begin(Optimistic, SnapshotIsolation)
		mustCommit(t, tx)
		e.CollectGarbage(1 << 20)
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSecondaryChurnRaceMV is the concurrent churn stress: writers migrate
// rows between duplicate chains (update), kill and revive rows
// (delete/insert), and readers range-scan the whole secondary index —
// while cooperative GC (GCEvery=1) continuously retires versions, drains
// chains, and runs the mark/sweep/free node protocol underneath. -race
// checks the publication protocol; the final assertions check that no row
// was lost or duplicated and that the node population stayed bounded by
// the tiny group domain.
func TestSecondaryChurnRaceMV(t *testing.T) {
	e, tbl := secondaryEngine(t)
	const (
		rows    = 48
		writers = 4
		readers = 2
	)
	opsEach := 400
	if testing.Short() {
		opsEach = 100
	}
	for k := uint64(0); k < rows; k++ {
		e.LoadRow(tbl, testPayload(k, k))
	}

	var wg sync.WaitGroup
	var aborted atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*571 + 1))
			for i := 0; i < opsEach; i++ {
				k := uint64(rng.Intn(rows))
				tx := e.Begin(Pessimistic, ReadCommitted)
				var err error
				if rng.Intn(4) == 0 {
					// Delete; a later iteration's update-miss re-inserts.
					_, err = tx.DeleteWhere(tbl, 0, k, nil)
				} else {
					var n int
					n, err = tx.UpdateWhere(tbl, 0, k, nil, func(old []byte) []byte {
						return testPayload(payloadKey(old), rng.Uint64())
					})
					if err == nil && n == 0 {
						err = tx.Insert(tbl, testPayload(k, rng.Uint64()))
					}
				}
				if err != nil {
					tx.Abort()
					aborted.Add(1)
					continue
				}
				if tx.Commit() != nil {
					aborted.Add(1)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*977 + 5))
			for i := 0; i < opsEach; i++ {
				tx := e.Begin(Optimistic, SnapshotIsolation)
				seen := make(map[uint64]bool)
				lo := uint64(rng.Intn(secGroups))
				err := tx.ScanRange(tbl, 1, lo, secGroups-1, nil, func(v *storage.Version) bool {
					k := payloadKey(v.Payload())
					if seen[k] {
						t.Errorf("row %d visible twice in one snapshot scan", k)
					}
					seen[k] = true
					if g := secGroupKey(v.Payload()); g < lo || g >= secGroups {
						t.Errorf("row %d in group %d leaked into [%d, %d]", k, g, lo, secGroups-1)
					}
					return true
				})
				if err != nil {
					tx.Abort()
					continue
				}
				mustCommit(t, tx)
			}
		}(r)
	}
	wg.Wait()

	// Drain GC so chains, versions and nodes settle.
	for i := 0; i < 8; i++ {
		tx := e.Begin(Optimistic, SnapshotIsolation)
		mustCommit(t, tx)
		e.CollectGarbage(1 << 20)
	}

	// Every surviving row appears in exactly one group chain.
	tx := e.Begin(Optimistic, SnapshotIsolation)
	live := make(map[uint64]int)
	if err := tx.ScanRange(tbl, 1, 0, secGroups-1, nil, func(v *storage.Version) bool {
		live[payloadKey(v.Payload())]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for k, n := range live {
		if n != 1 {
			t.Fatalf("row %d appears %d times across secondary chains", k, n)
		}
	}
	// Cross-check against the primary index.
	for k := uint64(0); k < rows; k++ {
		_, ok, err := tx.Lookup(tbl, 0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (live[k] == 1) {
			t.Fatalf("row %d: pk visible=%v, secondary visible=%v", k, ok, live[k] == 1)
		}
	}
	mustCommit(t, tx)

	ix := tbl.Index(1).(*storage.OrderedIndex)
	if keys := ix.Keys(); keys > secGroups {
		t.Fatalf("secondary index holds %d live keys, domain is %d", keys, secGroups)
	}
	marked, created := ix.NodeStats()
	t.Logf("secondary nodes: marked=%d created=%d aborts=%d", marked, created, aborted.Load())

	// Drain phase: delete every row so each duplicate chain empties row by
	// row — the node must survive while ANY row remains and die (mark →
	// sweep) only when the whole chain drains.
	for k := uint64(0); k < rows; k++ {
		tx := e.Begin(Pessimistic, ReadCommitted)
		if _, err := tx.DeleteWhere(tbl, 0, k, nil); err != nil {
			t.Fatalf("drain delete %d: %v", k, err)
		}
		mustCommit(t, tx)
	}
	drainUntil(t, e, func() bool {
		marked, _ := ix.NodeStats()
		return ix.Keys() == 0 && marked == 0 && e.Stats().IndexNodesSwept > 0
	})
	if keys := ix.Keys(); keys != 0 {
		t.Fatalf("secondary index still holds %d keys after all rows deleted", keys)
	}
	if e.Stats().IndexNodesSwept == 0 {
		t.Fatal("no secondary node completed the drain→mark→sweep cycle")
	}
	checkNodeAccounting(t, e, ix)

	// Revival with duplicates: reload rows; chains refill (with fresh
	// nodes) and scans see everything again.
	reviveTx := e.Begin(Pessimistic, ReadCommitted)
	for k := uint64(0); k < rows; k++ {
		if err := reviveTx.Insert(tbl, testPayload(k, k)); err != nil {
			t.Fatalf("revive insert %d: %v", k, err)
		}
	}
	mustCommit(t, reviveTx)
	tx = e.Begin(Optimistic, SnapshotIsolation)
	n := 0
	if err := tx.ScanRange(tbl, 1, 0, secGroups-1, nil, func(*storage.Version) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("revived scan found %d rows, want %d", n, rows)
	}
	mustCommit(t, tx)
}
