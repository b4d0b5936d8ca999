package mv

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/storage"
)

// shapeSizes straddle every version shape's inline capacity: 64-byte
// one-index (28 B) and two-index (20 B) versions, the 96-byte version's
// inline buffer (44 B) and a payload it keeps by reference.
var shapeSizes = []int{16, 20, 21, 28, 29, 44, 45, 64}

// shapeRow is a payload of size bytes: the key, the value, then a filler
// that depends on both, so a row read from a version recycled under it, or
// from a chain slot of another shape, reads differently.
func shapeRow(key, val uint64, size int) []byte {
	p := make([]byte, size)
	binary.LittleEndian.PutUint64(p, key)
	binary.LittleEndian.PutUint64(p[8:], val)
	for i := 16; i < size; i++ {
		p[i] = byte(key*31 + val*7 + uint64(i))
	}
	return p
}

// shapeRowIntact reports whether p is a row shapeRow could have made.
func shapeRowIntact(p []byte) bool {
	if len(p) < 16 {
		return false
	}
	key, val := payloadKey(p), payloadVal(p)
	for i := 16; i < len(p); i++ {
		if p[i] != byte(key*31+val*7+uint64(i)) {
			return false
		}
	}
	return true
}

func shapeGroup(p []byte) uint64 { return payloadKey(p) / 4 }

// TestVersionShapeChurnRace churns tables of one, two and three indexes
// through one engine, so its version pool serves all three shapes, while
// runtime.GC runs alongside: writers update rows to sizes on both sides of
// every shape's inline capacity, delete and re-insert them, and readers
// reach each row through every index and check its bytes. Under -race the
// pointer checks verify each conversion to a shape's type, and a chain
// store into bytes a shape lacks would show as a torn row or a crashed
// collector. Afterwards every row is reachable exactly once through every
// index.
func TestVersionShapeChurnRace(t *testing.T) {
	e := NewEngine(Config{GCEvery: 1, GCQuota: 1 << 20})
	t.Cleanup(func() { e.Close() })
	var tables []*storage.Table
	for nix := 1; nix <= 3; nix++ {
		indexes := []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Buckets: 64},
			{Name: "grp", Key: shapeGroup, Buckets: 8},
			{Name: "grp_ord", Key: shapeGroup, Ordered: true},
		}[:nix]
		tbl, err := e.CreateTable(storage.TableSpec{Name: fmt.Sprintf("t%d", nix), Indexes: indexes})
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	const (
		rows    = 32
		writers = 3
		readers = 2
	)
	opsEach := 600
	if testing.Short() {
		opsEach = 150
	}
	for _, tbl := range tables {
		for k := uint64(0); k < rows; k++ {
			e.LoadRow(tbl, shapeRow(k, 0, shapeSizes[k%uint64(len(shapeSizes))]))
		}
	}

	stop := make(chan struct{})
	var gcDone sync.WaitGroup
	gcDone.Add(1)
	go func() {
		defer gcDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 3))
			for i := 0; i < opsEach; i++ {
				tbl := tables[rng.Intn(len(tables))]
				k := uint64(rng.Intn(rows))
				val := rng.Uint64()
				size := shapeSizes[rng.Intn(len(shapeSizes))]
				tx := e.Begin(Optimistic, SnapshotIsolation)
				var err error
				if rng.Intn(5) == 0 {
					_, err = tx.DeleteWhere(tbl, 0, k, nil)
				} else {
					var n int
					n, err = tx.UpdateWhere(tbl, 0, k, nil, func([]byte) []byte { return shapeRow(k, val, size) })
					if err == nil && n == 0 {
						err = tx.Insert(tbl, shapeRow(k, val, size))
					}
				}
				if err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*104729 + 11))
			for i := 0; i < opsEach; i++ {
				tbl := tables[rng.Intn(len(tables))]
				k := uint64(rng.Intn(rows))
				ord := rng.Intn(tbl.NumIndexes())
				key := tbl.Index(ord).Key(shapeRow(k, 0, 16))
				tx := e.Begin(Optimistic, SnapshotIsolation)
				err := tx.Scan(tbl, ord, key, nil, func(v *storage.Version) bool {
					if p := v.Payload(); !shapeRowIntact(p) || tbl.Index(ord).Key(p) != key {
						t.Errorf("%s ordinal %d key %d: read a torn or foreign %d-byte row", tbl.Name, ord, key, len(p))
					}
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
	close(stop)
	gcDone.Wait()

	drainUntil(t, e, func() bool { return e.Stats().VersionsRecycled > 0 })
	if e.Stats().VersionsRecycled == 0 {
		t.Fatal("no version was recycled")
	}
	tx := e.Begin(Optimistic, SnapshotIsolation)
	for _, tbl := range tables {
		present := make(map[uint64]bool)
		for k := uint64(0); k < rows; k++ {
			v, ok, err := tx.Lookup(tbl, 0, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				if !shapeRowIntact(v.Payload()) {
					t.Fatalf("%s row %d is torn", tbl.Name, k)
				}
				present[k] = true
			}
		}
		for ord := 1; ord < tbl.NumIndexes(); ord++ {
			seen := make(map[uint64]int)
			for g := uint64(0); g < rows/4; g++ {
				err := tx.Scan(tbl, ord, g, nil, func(v *storage.Version) bool {
					seen[payloadKey(v.Payload())]++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(0); k < rows; k++ {
				want := 0
				if present[k] {
					want = 1
				}
				if seen[k] != want {
					t.Fatalf("%s ordinal %d reaches row %d %d times, want %d", tbl.Name, ord, k, seen[k], want)
				}
			}
		}
	}
	mustCommit(t, tx)
}
