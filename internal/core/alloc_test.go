//go:build !race

// The race detector makes sync.Pool drop Puts at random, so pooled engine
// transactions and versions are reallocated on some Begins; these counts
// only hold without it.

package core

import (
	"io"
	"math"
	"runtime"
	"testing"
)

// allocsPerTx is testing.AllocsPerRun without its truncation to an integer:
// the mean number of heap allocations per call of tx over runs calls, on one
// P, after warm calls on that P. An amortized 0.1 allocations per
// transaction (a buffer regrown every tenth commit) shows up as 1.1, not 1.
// The best of three windows is reported, so a one-off growth still settling
// does not count, while a steady cost shows in every window.
func allocsPerTx(warm, runs int, tx func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range warm {
		tx()
	}
	best := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			tx()
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return best
}

// TestTxSteadyStateAllocs pins the one allocation a warmed transaction makes
// through the public API: its Tx handle (newTx). Begin's options, the engine
// transaction, its bookkeeping, the versions it installs and the GC
// retire-queue entries it leaves are all recycled. The bodies build nothing:
// every key has a prebuilt payload, because 1V retains the slice it is
// given.
//
// The table is small so that warm-up finishes: an MV/L update inside its
// own scanned ranges lists itself once per covering range lock, and every
// pooled engine transaction must have grown its holder list to that depth
// before the count starts. The range shape logs at Flush durability, one
// commit per batch, so the log's staging buffers reach their size at once
// instead of growing with the longest batch a preemption happens to leave.
//
// MV/L Serializable hash point reads are left out: each takes a bucket lock
// whose holder list is allocated anew (ROADMAP item 2).
func TestTxSteadyStateAllocs(t *testing.T) {
	const rows = 1 << 9
	payloads := make([][]byte, rows)
	for k := range payloads {
		payloads[k] = pay(uint64(k), uint64(k)+1)
	}
	load := func(t *testing.T, scheme Scheme, ordered bool) (*Database, *Table) {
		t.Helper()
		cfg := Config{Scheme: scheme}
		if ordered {
			cfg.LogSink, cfg.Durability = io.Discard, DurabilityFlush
		}
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		tbl, err := db.CreateTable(TableSpec{
			Name:    "t",
			Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Buckets: rows, Ordered: ordered}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			db.LoadRow(tbl, p)
		}
		return db, tbl
	}
	seed := uint64(1)
	nextKey := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) % rows
	}
	update := func(t *testing.T, tx *Tx, tbl *Table) {
		k := nextKey()
		mut := func([]byte) []byte { return payloads[k] }
		if n, err := tx.UpdateWhere(tbl, 0, k, nil, mut); err != nil || n != 1 {
			t.Fatalf("update %d: n=%d err=%v", k, n, err)
		}
	}
	skip := func(Row) bool { return false }
	all := func(Row) bool { return true }

	shapes := []struct {
		name    string
		ordered bool
		body    func(t *testing.T, db *Database, tbl *Table) func()
	}{
		{"R10W2-rc-hash", false, func(t *testing.T, db *Database, tbl *Table) func() {
			opt := WithIsolation(ReadCommitted)
			return func() {
				tx := db.Begin(opt)
				for range 10 {
					if err := tx.Scan(tbl, 0, nextKey(), nil, skip); err != nil {
						t.Fatal(err)
					}
				}
				update(t, tx, tbl)
				update(t, tx, tbl)
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"R3-readonly", false, func(t *testing.T, db *Database, tbl *Table) func() {
			return func() {
				tx := db.BeginReadOnly()
				for range 3 {
					if err := tx.Scan(tbl, 0, nextKey(), nil, skip); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"S4x100W2-ser-ordered", true, func(t *testing.T, db *Database, tbl *Table) func() {
			opt := WithIsolation(Serializable)
			return func() {
				tx := db.Begin(opt)
				for range 4 {
					lo := nextKey() % (rows - 100)
					if err := tx.ScanRange(tbl, 0, lo, lo+99, nil, all); err != nil {
						t.Fatal(err)
					}
				}
				update(t, tx, tbl)
				update(t, tx, tbl)
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, scheme := range []Scheme{MVOptimistic, MVPessimistic, SingleVersion} {
		for _, sh := range shapes {
			t.Run(scheme.String()+"/"+sh.name, func(t *testing.T) {
				db, tbl := load(t, scheme, sh.ordered)
				tx := sh.body(t, db, tbl)
				if n := allocsPerTx(5000, 2000, tx); n != 1 {
					t.Errorf("%.4f allocations per transaction, want 1 (the Tx handle)", n)
				}
			})
		}
	}
}
