package sv

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iso"
	"repro/internal/storage"
)

// Non-unique secondary ordered index tests for the 1V engine: records
// relocate between duplicate chains in place (Update unlinks/relinks under
// X covers), and whole chains drain and their skip-list nodes go through
// the cooperative reclaim round.
// Companion of the MV suite in internal/mv/secondary_test.go; together
// they close the roadmap's "non-unique keys at scale — work but untested"
// note.

const svSecGroups = 4

func svSecGroupKey(p []byte) uint64 { return payloadVal(p) % svSecGroups }

func newSecondaryTestEngine(t *testing.T, timeout time.Duration) (*Engine, *Table) {
	t.Helper()
	e := NewEngine(Config{LockTimeout: timeout, ReclaimEvery: 1, ReclaimQuota: 1 << 20})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "t",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Buckets: 1 << 10},
			{Name: "grp", Key: svSecGroupKey, Ordered: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, tbl
}

// TestSVSecondaryRelocation: updates that change the secondary key move the
// record between duplicate chains; scans through both indexes stay
// consistent.
func TestSVSecondaryRelocation(t *testing.T) {
	e, tbl := newSecondaryTestEngine(t, time.Second)
	const rows = 32
	for k := uint64(0); k < rows; k++ {
		e.LoadRow(tbl, testPayload(k, k))
	}
	tx := e.Begin(iso.ReadCommitted)
	moved, err := tx.UpdateWhere(tbl, 1, 0, nil, func(old []byte) []byte {
		return testPayload(payloadKey(old), payloadVal(old)+2) // group 0 → 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if moved != rows/svSecGroups {
		t.Fatalf("moved %d records", moved)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = e.Begin(iso.ReadCommitted)
	counts := make(map[uint64]int)
	if err := tx.ScanRange(tbl, 1, 0, svSecGroups-1, nil, func(r *Record) bool {
		counts[svSecGroupKey(r.Payload())]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 0 || counts[2] != 2*rows/svSecGroups {
		t.Fatalf("groups after relocation: %v", counts)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSVSecondaryChurnRace: concurrent writers migrate records between
// duplicate chains and delete/re-insert them while readers scan the
// secondary index, with the cooperative reclaim round (ReclaimEvery=1)
// sweeping drained nodes throughout. Locks serialize access (timeouts
// break deadlocks and surface as aborts); -race checks node marking,
// sweeping and revival under many-records-per-key chains.
func TestSVSecondaryChurnRace(t *testing.T) {
	e, tbl := newSecondaryTestEngine(t, 250*time.Millisecond)
	const (
		rows    = 48
		writers = 4
		readers = 2
	)
	opsEach := 300
	if testing.Short() {
		opsEach = 80
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
			rng := rand.New(rand.NewSource(int64(w)*331 + 9))
			for i := 0; i < opsEach; i++ {
				k := uint64(rng.Intn(rows))
				tx := e.Begin(iso.ReadCommitted)
				var err error
				if rng.Intn(4) == 0 {
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
			rng := rand.New(rand.NewSource(int64(r)*53 + 2))
			for i := 0; i < opsEach; i++ {
				tx := e.Begin(iso.ReadCommitted)
				lo := uint64(rng.Intn(svSecGroups))
				seen := make(map[uint64]bool)
				err := tx.ScanRange(tbl, 1, lo, svSecGroups-1, nil, func(rec *Record) bool {
					k := payloadKey(rec.Payload())
					if seen[k] {
						t.Errorf("record %d scanned twice", k)
					}
					seen[k] = true
					if g := svSecGroupKey(rec.Payload()); g < lo {
						t.Errorf("record %d in group %d leaked into [%d, %d]", k, g, lo, svSecGroups-1)
					}
					return true
				})
				if err != nil {
					tx.Abort()
					aborted.Add(1)
					continue
				}
				if tx.Commit() != nil {
					aborted.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()

	// Settle: the secondary index must agree with the primary row by row.
	tx := e.Begin(iso.RepeatableRead)
	live := make(map[uint64]int)
	if err := tx.ScanRange(tbl, 1, 0, svSecGroups-1, nil, func(r *Record) bool {
		live[payloadKey(r.Payload())]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for k, n := range live {
		if n != 1 {
			t.Fatalf("record %d appears %d times across secondary chains", k, n)
		}
	}
	for k := uint64(0); k < rows; k++ {
		_, ok, err := tx.Lookup(tbl, 0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (live[k] == 1) {
			t.Fatalf("record %d: pk visible=%v, secondary visible=%v", k, ok, live[k] == 1)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Drain everything; duplicate chains empty record by record and the
	// nodes complete mark → sweep.
	for k := uint64(0); k < rows; k++ {
		tx := e.Begin(iso.ReadCommitted)
		if _, err := tx.DeleteWhere(tbl, 0, k, nil); err != nil {
			t.Fatalf("drain delete %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("drain commit %d: %v", k, err)
		}
	}
	e.ReclaimNodes(1 << 20)
	ix := tbl.indexes[1].(*orderedIndex)
	if keys := ix.list.Len(); keys != 0 {
		t.Fatalf("secondary index holds %d keys after draining all records", keys)
	}
	if e.Stats().IndexNodesSwept == 0 {
		t.Fatal("no secondary node completed the drain→mark→sweep cycle")
	}
	checkSVNodeAccounting(t, e, ix)
	t.Logf("aborts=%d (lock timeouts breaking deadlocks are expected)", aborted.Load())
}
