package core_test

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// footprintRows is the number of rows TestRowFootprint loads.
const footprintRows = 1 << 16

// TestRowFootprint pins what one loaded row costs in live heap, per scheme:
// the paper's 24-byte row in a hash table sized to the row count. An MV row
// is one 64-byte version (payload inline) plus its 16-byte hash bucket, 80
// bytes; a 1V row is one 64-byte record, the 24-byte payload it retains and
// its 16-byte bucket with the key lock, 104 bytes. TATP's shape, a 19-byte
// row on a primary and a secondary hash index with two rows per secondary
// key, costs an MV row its 64-byte two-index version and 24 bytes of
// buckets, 88 bytes. A field that pushes either row format into the next
// size class, or a bucket past 16 bytes, fails here.
func TestRowFootprint(t *testing.T) {
	for _, c := range []struct {
		name   string
		scheme core.Scheme
		load   func(*core.Database) error
		max    float64 // bytes per row
	}{
		{"24-byte rows", core.MVOptimistic, loadRows, 88},
		{"24-byte rows", core.SingleVersion, loadRows, 112},
		{"19-byte rows on two indexes", core.MVOptimistic, loadTwoIndexRows, 96},
	} {
		var before, after runtime.MemStats
		settleHeap()
		runtime.ReadMemStats(&before)
		db, err := core.Open(core.Config{Scheme: c.scheme})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.load(db); err != nil {
			t.Fatal(err)
		}
		settleHeap()
		runtime.ReadMemStats(&after)
		per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / footprintRows
		t.Logf("%v, %s: %.1f bytes per row", c.scheme, c.name, per)
		if per > c.max {
			t.Errorf("%v, %s: %.1f bytes per loaded row, want at most %v", c.scheme, c.name, per, c.max)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// loadRows loads TestRowFootprint's rows of the Section 5 workloads.
func loadRows(db *core.Database) error {
	tbl, err := workload.Table(db, footprintRows)
	if err != nil {
		return err
	}
	workload.Load(db, tbl, footprintRows)
	return nil
}

// loadTwoIndexRows loads TestRowFootprint's rows of TATP's shape: a 19-byte
// row whose bytes 0..7 are its primary key and bytes 8..15 its secondary
// key, shared by two rows.
func loadTwoIndexRows(db *core.Database) error {
	const rows = footprintRows
	tbl, err := db.CreateTable(core.TableSpec{Name: "two", Indexes: []core.IndexSpec{
		{Name: "pk", Key: func(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }, Buckets: rows},
		{Name: "sk", Key: func(p []byte) uint64 { return binary.LittleEndian.Uint64(p[8:]) }, Buckets: rows / 2},
	}})
	if err != nil {
		return err
	}
	for k := uint64(0); k < rows; k++ {
		p := make([]byte, 19)
		binary.LittleEndian.PutUint64(p, k)
		binary.LittleEndian.PutUint64(p[8:], k/2)
		db.LoadRow(tbl, p)
	}
	return nil
}

// settleHeap collects until the previous engine is gone: a sync.Pool keeps
// its objects, and through them their engine, across one collection.
func settleHeap() {
	for range 3 {
		runtime.GC()
	}
}
