package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/workload/seedtest"
)

// These tests drive concurrent commits through the full engine stack at
// GOMAXPROCS >= 4, so committers really run in parallel and race on the
// timestamp oracle. Run under -race in CI, the stamp test is the concurrency
// witness for end-timestamp draws; the history test is the ordering witness —
// draws taken under locks, after the Preparing flip, must keep every
// committed history serializable in end-timestamp order.

// withGOMAXPROCS raises GOMAXPROCS to at least n for the duration of the
// test (never lowers it) and restores the old value afterwards.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	if old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// TestCommitStampStress hammers commit from many goroutines on every
// scheme, interleaving transaction-ID and end-timestamp draws, and checks
// the commit stamps end to end: globally unique, per-goroutine strictly
// increasing (a draw linearizes inside its own CommitTS call), and every
// stamp counted by FunnelStats, where each draw is one fetch-and-add.
func TestCommitStampStress(t *testing.T) {
	withGOMAXPROCS(t, 4)
	const (
		workers = 8
		rows    = 256
	)
	txns := 400
	if testing.Short() {
		txns = 120
	}
	for _, scheme := range allSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			db, err := Open(Config{Scheme: scheme, LockTimeout: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable(TableSpec{
				Name:    "t",
				Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Buckets: 1 << 8}},
			})
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < rows; k++ {
				db.LoadRow(tbl, pay(k, k))
			}

			stamps := make([][]uint64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)*6151 + 17))
					for i := 0; i < txns; i++ {
						for {
							tx := db.Begin()
							k := rng.Uint64() % rows
							if _, err := tx.UpdateWhere(tbl, 0, k, nil, func(old []byte) []byte {
								return pay(k, valOf(old)+1)
							}); err != nil {
								tx.Abort()
								continue
							}
							end, err := tx.CommitTS()
							if err != nil {
								continue
							}
							if end != 0 {
								stamps[w] = append(stamps[w], end)
							}
							break
						}
					}
				}(w)
			}
			wg.Wait()

			seen := make(map[uint64]int)
			for w, ss := range stamps {
				for i, s := range ss {
					if i > 0 && s <= ss[i-1] {
						t.Fatalf("worker %d: stamp %d after %d — commit order not monotone", w, s, ss[i-1])
					}
					if prev, dup := seen[s]; dup {
						t.Fatalf("stamp %d issued to workers %d and %d", s, prev, w)
					}
					seen[s] = w
				}
			}
			fs := db.FunnelStats()
			if fs.Draws != fs.Physical || fs.Draws < uint64(len(seen)) {
				t.Fatalf("draw accounting %+v inconsistent with %d stamps", fs, len(seen))
			}
			t.Logf("%s: %d unique stamps, %d draws", scheme, len(seen), fs.Draws)
		})
	}
}

// TestHistorySerializableMultiCore re-runs the randomized serializable range
// workload with GOMAXPROCS raised to 4, where committers draw end
// timestamps in parallel. The range-aware checker replays every committed
// history in end-timestamp order, so a draw that broke the commit-order
// contract (a stamp issued out of order with a lock release, a state flip or
// a conflicting commit) would surface as a serializability violation here.
func TestHistorySerializableMultiCore(t *testing.T) {
	withGOMAXPROCS(t, 4)
	base := seedtest.Base(t, 7877)
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for _, scheme := range allSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			for i := 0; i < seeds; i++ {
				runRandomRangeWorkload(t, scheme, seedtest.Derive(base, i))
			}
		})
	}
}
