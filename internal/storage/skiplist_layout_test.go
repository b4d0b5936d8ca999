package storage

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
	"weak"
)

// A new skip-list node is one allocation: header and tower together, and
// nothing else, whether the key is appended behind the tail finger or linked
// below the maximum through a descent.
func TestSkipNodeOneAllocation(t *testing.T) {
	var s SkipList[Bucket]
	key := uint64(1 << 32)
	allocs := testing.AllocsPerRun(1000, func() {
		key++
		s.GetOrCreate(key)
	})
	if allocs != 1 {
		t.Fatalf("GetOrCreate of a fresh key above the maximum made %v allocations, want 1", allocs)
	}
	key = 0
	allocs = testing.AllocsPerRun(1000, func() {
		key++
		s.GetOrCreate(key)
	})
	if allocs != 1 {
		t.Fatalf("GetOrCreate of a fresh key below the maximum made %v allocations, want 1", allocs)
	}
}

// TestSkipNodeHeaderSize pins the compact node header, so a field added to
// it fails here rather than quietly pushing towers onto a second line.
func TestSkipNodeHeaderSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(SkipNode[Bucket]{}); got != 40 {
		t.Errorf("SkipNode[Bucket] is %d bytes, want 40", got)
	}
	// One pointer of value: the shape of the single-version record chain.
	if got := unsafe.Sizeof(SkipNode[struct{ head *Version }]{}); got != 32 {
		t.Errorf("SkipNode[struct{ head *Version }] is %d bytes, want 32", got)
	}
}

// TestBucketSize pins the bucket at the paper's shape: a chain head and one
// 32-bit word holding the insert/unlink latch and the bucket-lock count.
func TestBucketSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Bucket{}); got != 16 {
		t.Errorf("Bucket is %d bytes, want 16", got)
	}
}

// TestSkipNodeTowerScanned checks that the collector sees every tower level
// of every height: a successor reachable only through a node's level i must
// survive a collection. A height mapped to a class with too few trailing
// slots would park its top levels in allocation padding the collector never
// scans, and lose them here.
func TestSkipNodeTowerScanned(t *testing.T) {
	for h := 1; h <= skipMaxLevel; h++ {
		n := newSkipNode[int](h)
		succs := make([]weak.Pointer[SkipNode[int]], h)
		for i := range succs {
			succ := newSkipNode[int](1)
			n.level(i).Store(succ)
			succs[i] = weak.Make(succ)
		}
		runtime.GC()
		for i, w := range succs {
			if w.Value() == nil {
				t.Fatalf("height %d: the successor held only by level %d was collected", h, i)
			}
		}
		runtime.KeepAlive(n)
	}
}

// checkSkipStructure walks every level from the head and checks the skip-list
// invariants: keys ascend, a node on level i is at least i+1 tall, and level
// i's nodes are a subsequence of level i-1's. It returns each level's node
// set.
func checkSkipStructure(t *testing.T, s *SkipList[int]) [skipMaxLevel]map[*SkipNode[int]]bool {
	t.Helper()
	var onLevel [skipMaxLevel]map[*SkipNode[int]]bool
	for lvl := 0; lvl < skipMaxLevel; lvl++ {
		onLevel[lvl] = make(map[*SkipNode[int]]bool)
		var prev *SkipNode[int]
		for n := s.nextAt(nil, lvl).Load(); n != nil; n = n.level(lvl).Load() {
			if int(n.height) <= lvl {
				t.Fatalf("key %d (height %d) linked at level %d", n.key, n.height, lvl)
			}
			if prev != nil && n.key <= prev.key {
				t.Fatalf("level %d: key %d after %d", lvl, n.key, prev.key)
			}
			if lvl > 0 && !onLevel[lvl-1][n] {
				t.Fatalf("key %d on level %d but not on level %d", n.key, lvl, lvl-1)
			}
			onLevel[lvl][n] = true
			prev = n
		}
	}
	return onLevel
}

// seedHeight sets s's generator so that the next node it links is h levels
// tall.
func seedHeight[V any](s *SkipList[V], h int) {
	for seed := uint64(1); ; seed++ {
		s.rng = seed
		if s.randomLevel() == h {
			s.rng = seed
			return
		}
	}
}

// TestSkipListEveryHeight runs a node of each height 1..skipMaxLevel, and so
// every height-class boundary, through its whole lifecycle: link, lookups
// that descend through each of its levels, mark and sweep.
func TestSkipListEveryHeight(t *testing.T) {
	for h := 1; h <= skipMaxLevel; h++ {
		var s SkipList[int]
		var background []uint64
		for k := uint64(10); k <= 2000; k += 10 {
			s.GetOrCreate(k)
			background = append(background, k)
		}
		// Key 1 is the smallest, so every lookup of a larger key steps from
		// the head onto it and reads each of its levels.
		seedHeight(&s, h)
		tall := s.GetOrCreate(1)
		if int(tall.height) != h {
			t.Fatalf("h=%d: GetOrCreate linked a node of height %d", h, tall.height)
		}
		onLevel := checkSkipStructure(t, &s)
		for lvl := 0; lvl < skipMaxLevel; lvl++ {
			if onLevel[lvl][tall] != (lvl < h) {
				t.Fatalf("h=%d: node on level %d = %v", h, lvl, onLevel[lvl][tall])
			}
		}
		if s.Get(1) != tall || s.Seek(0) != tall || s.Seek(1) != tall {
			t.Fatalf("h=%d: Get/Seek miss the tall node", h)
		}
		for _, k := range background {
			if n := s.Get(k); n == nil || n.key != k {
				t.Fatalf("h=%d: Get(%d) = %v", h, k, n)
			}
			if n := s.Seek(k - 5); n == nil || n.key != k {
				t.Fatalf("h=%d: Seek(%d) = %v", h, k-5, n)
			}
		}

		// Mark and sweep: unlinked from every level, its own tower intact
		// for a reader parked on it.
		tower := make([]*SkipNode[int], h)
		for i := range tower {
			tower[i] = tall.level(i).Load()
		}
		s.MarkDeleted(tall)
		if swept := s.SweepMarked(0); swept != 1 {
			t.Fatalf("h=%d: swept %d nodes, want 1", h, swept)
		}
		onLevel = checkSkipStructure(t, &s)
		for lvl := 0; lvl < skipMaxLevel; lvl++ {
			if onLevel[lvl][tall] {
				t.Fatalf("h=%d: swept node still on level %d", h, lvl)
			}
		}
		if s.Get(1) != nil || s.Seek(0).Key() != 10 || tall.Next().Key() != 10 {
			t.Fatalf("h=%d: after sweep Get(1)=%v Seek(0)=%d Next=%v", h, s.Get(1), s.Seek(0).Key(), tall.Next())
		}
		for i := range tower {
			if tall.level(i).Load() != tower[i] {
				t.Fatalf("h=%d: the sweep rewrote the swept node's level %d", h, i)
			}
		}
		if s.Created() != uint64(len(background))+1 {
			t.Fatalf("h=%d: created %d", h, s.Created())
		}
	}
}

// The descent benchmarks run on a 2^20-key list of random keys, built once,
// so every lookup walks a tower far larger than the caches.
const benchSkipKeys = 1 << 20

var (
	benchSkipOnce sync.Once
	benchSkip     SkipList[Bucket]
	benchSkipKeyv []uint64
	benchSkipSink *SkipNode[Bucket]
)

func benchSkipList() (*SkipList[Bucket], []uint64) {
	benchSkipOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		benchSkipKeyv = make([]uint64, benchSkipKeys)
		for i := range benchSkipKeyv {
			k := rng.Uint64()
			benchSkipKeyv[i] = k
			benchSkip.GetOrCreate(k)
		}
	})
	return &benchSkip, benchSkipKeyv
}

func BenchmarkSkipListSeek1M(b *testing.B) {
	s, keys := benchSkipList()
	i := 0
	for b.Loop() {
		benchSkipSink = s.Seek(keys[i&(benchSkipKeys-1)])
		i++
	}
}

func BenchmarkSkipListGet1M(b *testing.B) {
	s, keys := benchSkipList()
	i := 0
	for b.Loop() {
		benchSkipSink = s.Get(keys[i&(benchSkipKeys-1)])
		i++
	}
}

// BenchmarkSkipListAppend1M appends ascending keys, the order a sorted load
// inserts them in, to a list that grows to 2^20 keys and then starts over:
// an op is one GetOrCreate of a key above the maximum.
func BenchmarkSkipListAppend1M(b *testing.B) {
	s := new(SkipList[Bucket])
	i := 0
	for b.Loop() {
		if i == benchSkipKeys {
			s, i = new(SkipList[Bucket]), 0
		}
		benchSkipSink = s.GetOrCreate(uint64(i) << 4)
		i++
	}
}
