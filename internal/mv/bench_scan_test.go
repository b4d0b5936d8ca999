package mv_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkScanScattered times read-only 100-row range scans, in ns per
// row, on an ordered table whose versions random updates have scattered
// across the heap. An MV update installs the new version at an unrelated
// address, so a scan of an updated table loses the locality of the sorted
// load and pays a cache miss for each row's Begin word. The fresh case
// scans the table as loaded.
func BenchmarkScanScattered(b *testing.B) {
	const (
		rows = 1 << 18
		span = 100
	)
	for _, c := range []struct {
		name    string
		updates int
	}{{"fresh", 0}, {"updated", rows}} {
		b.Run(c.name, func(b *testing.B) {
			db, err := core.Open(core.Config{Scheme: core.MVOptimistic})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			tbl, err := workload.OrderedTable(db, rows)
			if err != nil {
				b.Fatal(err)
			}
			workload.Load(db, tbl, rows)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < c.updates; i++ {
				k := rng.Uint64() % rows
				tx := db.Begin()
				if _, err := tx.UpdateWhere(tbl, 0, k, nil, func(old []byte) []byte {
					return workload.Row(k, workload.RowVal(old)+1)
				}); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
				if i%1024 == 0 {
					db.CollectGarbage(0)
				}
			}
			db.CollectGarbage(0)
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := rng.Uint64() % (rows - span)
				tx := db.BeginReadOnly()
				if err := tx.ScanRange(tbl, 0, lo, lo+span-1, nil, func(r core.Row) bool {
					sink += workload.RowVal(r.Payload())
					return true
				}); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*span), "ns/row")
			if sink == 0 {
				b.Fatal("scans read nothing")
			}
		})
	}
}
