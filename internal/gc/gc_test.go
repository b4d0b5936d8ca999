package gc

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/field"
	"repro/internal/storage"
)

func pay(key uint64) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint64(p, key)
	return p
}

func keyOf(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

func newTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl, err := storage.NewTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: keyOf, Buckets: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func chainLen(tbl *storage.Table, key uint64) int {
	n := 0
	for v := tbl.Index(0).Lookup(key).Head(); v != nil; v = v.Next(0) {
		n++
	}
	return n
}

func TestCollectRespectsWatermark(t *testing.T) {
	tbl := newTable(t)
	var wm atomic.Uint64
	c := NewCollector(func() uint64 { return wm.Load() })

	// Three superseded versions ending at 10, 20, 30.
	for _, end := range []uint64{10, 20, 30} {
		v := storage.NewVersion(pay(1), 1, field.FromTS(end-5), field.FromTS(end))
		tbl.Insert(v)
		c.Retire(tbl, v)
	}
	wm.Store(5)
	if n := c.Collect(0); n != 0 {
		t.Fatalf("reclaimed %d below watermark", n)
	}
	wm.Store(20)
	if n := c.Collect(0); n != 2 {
		t.Fatalf("reclaimed %d, want 2 (ends 10 and 20)", n)
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d", c.Pending())
	}
	wm.Store(1 << 60)
	if n := c.Collect(0); n != 1 {
		t.Fatalf("reclaimed %d, want 1", n)
	}
	if chainLen(tbl, 1) != 0 {
		t.Fatalf("chain length %d after full collection", chainLen(tbl, 1))
	}
	retired, reclaimed := c.Stats()
	if retired != 3 || reclaimed != 3 {
		t.Fatalf("stats = %d/%d", retired, reclaimed)
	}
}

func TestAbortedVersionsCollectImmediately(t *testing.T) {
	tbl := newTable(t)
	c := NewCollector(func() uint64 { return 0 })
	v := storage.NewVersion(pay(1), 1, field.FromTS(field.Infinity), field.FromTS(field.Infinity))
	tbl.Insert(v)
	c.Retire(tbl, v)
	if n := c.Collect(0); n != 1 {
		t.Fatalf("reclaimed %d, want 1 (aborted)", n)
	}
}

func TestCollectLimit(t *testing.T) {
	tbl := newTable(t)
	c := NewCollector(func() uint64 { return 1 << 60 })
	for i := 0; i < 100; i++ {
		v := storage.NewVersion(pay(uint64(i)), 1, field.FromTS(1), field.FromTS(2))
		tbl.Insert(v)
		c.Retire(tbl, v)
	}
	n := c.Collect(10)
	if n == 0 || n > 10 {
		t.Fatalf("limited collect reclaimed %d", n)
	}
	total := n
	for i := 0; i < 20 && total < 100; i++ {
		total += c.Collect(10)
	}
	if total != 100 {
		t.Fatalf("total reclaimed %d", total)
	}
}

func TestConcurrentRetireCollect(t *testing.T) {
	tbl := newTable(t)
	c := NewCollector(func() uint64 { return 1 << 60 })
	var wg sync.WaitGroup
	const workers, per = 4, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := storage.NewVersion(pay(uint64(w*per+i)), 1, field.FromTS(1), field.FromTS(2))
				tbl.Insert(v)
				c.Retire(tbl, v)
				if i%16 == 0 {
					c.Collect(32)
				}
			}
		}(w)
	}
	wg.Wait()
	for c.Pending() > 0 {
		if c.Collect(0) == 0 && c.Pending() > 0 {
			t.Fatalf("stuck with %d pending", c.Pending())
		}
	}
	_, reclaimed := c.Stats()
	if reclaimed != workers*per {
		t.Fatalf("reclaimed %d, want %d", reclaimed, workers*per)
	}
}

// TestRetireCollectConcurrent runs retirers and collectors on one collector
// at once. Every eighth version ends past the watermark and must survive;
// the rest are garbage. After a final drain every retired version is either
// reclaimed or still pending, none reached the recycler twice, and on every
// shard one retirer's survivors are still in the order it retired them: a
// round requeues what survived ahead of what arrived while it ran.
func TestRetireCollectConcurrent(t *testing.T) {
	const wm, live = 1000, 1 << 40
	tbl, err := storage.NewTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: keyOf, Buckets: 1 << 12}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(func() uint64 { return wm })
	var freeMu sync.Mutex
	freed := make(map[*storage.Version]bool)
	var twice atomic.Int64
	c.SetRecycler(func() uint64 { return 1 }, func(v *storage.Version) {
		freeMu.Lock()
		if freed[v] {
			twice.Add(1)
		}
		freed[v] = true
		freeMu.Unlock()
	})

	const retirers, collectors, per = 4, 3, 1000
	var retiring, collecting sync.WaitGroup
	var done atomic.Bool
	for w := range retirers {
		retiring.Add(1)
		go func() {
			defer retiring.Done()
			for i := range per {
				end := uint64(2)
				if i%8 == 0 {
					end = live
				}
				v := storage.NewVersion(pay(uint64(w*per+i)), 1, field.FromTS(1), field.FromTS(end))
				tbl.Insert(v)
				c.Retire(tbl, v)
			}
		}()
	}
	for range collectors {
		collecting.Add(1)
		go func() {
			defer collecting.Done()
			for !done.Load() {
				c.Collect(16)
			}
		}()
	}
	retiring.Wait()
	done.Store(true)
	collecting.Wait()
	for c.Collect(0) > 0 {
	}
	c.Collect(0) // hands the last unlinked versions to the recycler

	retired, reclaimed := c.Stats()
	survivors := retirers * per / 8
	if retired != retirers*per || reclaimed+uint64(c.Pending()) != retired || c.Pending() != survivors {
		t.Fatalf("retired %d, reclaimed %d, pending %d; want %d = reclaimed + pending with %d pending",
			retired, reclaimed, c.Pending(), retirers*per, survivors)
	}
	if n := twice.Load(); n > 0 {
		t.Fatalf("%d versions reached the recycler twice", n)
	}
	if uint64(len(freed)) != reclaimed {
		t.Fatalf("%d versions recycled, want %d", len(freed), reclaimed)
	}
	for i := range c.shards {
		last := make(map[uint64]uint64) // retirer -> key of its last survivor
		for _, r := range c.shards[i].q {
			k := keyOf(r.v.Payload())
			w := k / per
			if prev, ok := last[w]; ok && k < prev {
				t.Fatalf("shard %d: retirer %d's survivor %d requeued behind its later %d", i, w, k, prev)
			}
			last[w] = k
		}
	}
}

// TestSpareCapDropped: neither a burst retired while a round has a shard's
// queue detached nor one that backs up behind a long reader leaves an array
// above spareMax behind once it drains; the steady-state queues keep their
// spare.
func TestSpareCapDropped(t *testing.T) {
	tbl, err := storage.NewTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: keyOf, Buckets: 1 << 17}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wm atomic.Uint64
	wm.Store(10)
	c := NewCollector(func() uint64 { return wm.Load() })
	next := uint64(0)
	retire := func(n int, end uint64) {
		for range n {
			next++
			v := storage.NewVersion(pay(next), 1, field.FromTS(1), field.FromTS(end))
			tbl.Insert(v)
			c.Retire(tbl, v)
		}
	}
	const burst = 2 * spareMax * queueShards
	// The recycler's clock runs inside a round, with the first shard's
	// queue detached: the burst lands there in the swapped-in spare, and in
	// the other shards' live queues. A long reader holds the burst back.
	fired := false
	c.SetRecycler(func() uint64 {
		if !fired {
			fired = true
			retire(burst, 20)
		}
		return 1
	}, func(*storage.Version) {})
	retire(queueShards, 5)
	c.Collect(0)
	if !fired || c.Pending() != burst {
		t.Fatalf("fired %v, pending %d: want the burst of %d pending", fired, c.Pending(), burst)
	}
	for i := range c.shards {
		if s := &c.shards[i]; cap(s.spare) > spareMax {
			t.Fatalf("shard %d keeps a spare of cap %d after a burst arrived mid-round, want <= %d",
				i, cap(s.spare), spareMax)
		}
	}
	// The reader finishes; the burst drains behind a trickle of newer
	// versions that are not yet garbage.
	wm.Store(20)
	retire(queueShards, 30)
	for c.Collect(0) > 0 {
	}
	retire(queueShards, 30)
	c.Collect(0)
	for i := range c.shards {
		s := &c.shards[i]
		if cap(s.q) > spareMax || cap(s.spare) > spareMax {
			t.Fatalf("shard %d keeps cap %d live and %d spare after the burst drained, want both <= %d",
				i, cap(s.q), cap(s.spare), spareMax)
		}
	}
	if c.Pending() != 2*queueShards {
		t.Fatalf("pending %d, want the %d versions not yet garbage", c.Pending(), 2*queueShards)
	}
}
