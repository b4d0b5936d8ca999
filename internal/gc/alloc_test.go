package gc

import (
	"runtime"
	"testing"

	"repro/internal/field"
	"repro/internal/storage"
)

// TestCollectSteadyStateAllocs: once a shard's two queue buffers have grown
// to the round's size, retiring versions and collecting them allocates
// nothing — Collect swaps the spare in instead of starting the live queue
// over from nil, and the unlinked versions pass through the recycler's
// Limbo without copying. The watermark folds a ReaderPins.Min, as MV's
// does, and each round takes and releases one pin, so a pin round is
// counted too.
func TestCollectSteadyStateAllocs(t *testing.T) {
	tbl := newTable(t)
	var pins ReaderPins
	pins.Init(0)
	c := NewCollector(func() uint64 { return pins.Min(1 << 60) })
	recycled := 0
	c.SetRecycler(func() uint64 { return 1 }, func(*storage.Version) { recycled++ })
	vs := make([]*storage.Version, 64)
	payloads := make([][]byte, len(vs))
	for i := range vs {
		payloads[i] = pay(uint64(i))
		vs[i] = storage.NewVersion(payloads[i], 1, field.FromTS(1), field.FromTS(2))
	}
	round := func() {
		pins.Release(pins.Acquire(1 << 59))
		for i, v := range vs {
			v.Reset(payloads[i], 1, field.FromTS(1), field.FromTS(2))
			tbl.Insert(v)
			c.Retire(tbl, v)
		}
		if n := c.Collect(0); n != len(vs) {
			t.Fatalf("reclaimed %d, want %d", n, len(vs))
		}
	}
	for range 10 {
		round()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	const rounds = 1000
	runtime.ReadMemStats(&before)
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&after)
	if recycled < rounds*len(vs) {
		t.Errorf("recycled %d versions, want at least %d", recycled, rounds*len(vs))
	}
	if n := float64(after.Mallocs-before.Mallocs) / rounds; n != 0 {
		t.Errorf("%.3f allocations per pin+Retire+Collect round of %d versions, want 0", n, len(vs))
	}
}
