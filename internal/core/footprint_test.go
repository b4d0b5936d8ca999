package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestRowFootprint pins what one loaded row costs in live heap, per scheme:
// the paper's 24-byte row in a hash table sized to the row count. An MV row
// is one 96-byte version (payload inline) plus its 16-byte hash bucket, 112
// bytes; a 1V row is one 64-byte record, the 24-byte payload it retains and
// its 16-byte bucket with the key lock, 104 bytes. A field that pushes
// either row format into the next size class, or a bucket past 16 bytes,
// fails here.
func TestRowFootprint(t *testing.T) {
	const rows = 1 << 16
	for _, c := range []struct {
		scheme core.Scheme
		max    float64 // bytes per row
	}{
		{core.MVOptimistic, 120},
		{core.SingleVersion, 112},
	} {
		var before, after runtime.MemStats
		settleHeap()
		runtime.ReadMemStats(&before)
		db, err := core.Open(core.Config{Scheme: c.scheme})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := workload.Table(db, rows)
		if err != nil {
			t.Fatal(err)
		}
		workload.Load(db, tbl, rows)
		settleHeap()
		runtime.ReadMemStats(&after)
		per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / rows
		t.Logf("%v: %.1f bytes per row", c.scheme, per)
		if per > c.max {
			t.Errorf("%v: %.1f bytes per loaded row, want at most %v", c.scheme, per, c.max)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// settleHeap collects until the previous engine is gone: a sync.Pool keeps
// its objects, and through them their engine, across one collection.
func settleHeap() {
	for range 3 {
		runtime.GC()
	}
}
