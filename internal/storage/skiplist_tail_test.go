package storage

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkTail checks that the list's level tails are exact: last[lvl] is the
// last node of level lvl (nil for the head) and maxKey is last[0]'s key.
func checkTail(t *testing.T, s *SkipList[int]) {
	t.Helper()
	for lvl := 0; lvl < skipMaxLevel; lvl++ {
		var tail *SkipNode[int]
		for n := s.nextAt(nil, lvl).Load(); n != nil; n = n.level(lvl).Load() {
			tail = n
		}
		if s.last[lvl] != tail {
			t.Fatalf("level %d: finger %v, last node %v", lvl, s.last[lvl], tail)
		}
	}
	var max uint64
	if s.last[0] != nil {
		max = s.last[0].key
	}
	if got := s.maxKey.Load(); got != max {
		t.Fatalf("maxKey = %d, last key %d", got, max)
	}
}

// levelKeys returns the keys linked at every level, bottom first.
func levelKeys(s *SkipList[int]) [skipMaxLevel][]uint64 {
	var keys [skipMaxLevel][]uint64
	for lvl := range keys {
		for n := s.nextAt(nil, lvl).Load(); n != nil; n = n.level(lvl).Load() {
			keys[lvl] = append(keys[lvl], n.key)
		}
	}
	return keys
}

// TestSkipListTailAppendHeights appends ascending keys with a node of every
// height 1..skipMaxLevel among them, so every height class links through the
// finger, and checks the towers are those the same keys and heights build
// through descents: the second list carries a sentinel above every key, so
// none of its inserts is an append.
func TestSkipListTailAppendHeights(t *testing.T) {
	var app, desc SkipList[int]
	seedHeight(&desc, 1)
	desc.GetOrCreate(math.MaxUint64)
	key := uint64(0)
	for h := 1; h <= skipMaxLevel; h++ {
		for _, s := range []*SkipList[int]{&app, &desc} {
			seedHeight(s, h)
			if n := s.GetOrCreate(key); int(n.height) != h {
				t.Fatalf("key %d linked at height %d, want %d", key, n.height, h)
			}
			// Natural heights in between, drawn from the same generator
			// state in both lists.
			for k := key + 1; k < key+8; k++ {
				s.GetOrCreate(k)
			}
		}
		key += 8
		checkTail(t, &app)
	}
	checkSkipStructure(t, &app)
	checkSkipStructure(t, &desc)
	a, d := levelKeys(&app), levelKeys(&desc)
	for lvl := range a {
		if len(d[lvl]) > 0 && d[lvl][len(d[lvl])-1] == math.MaxUint64 {
			d[lvl] = d[lvl][:len(d[lvl])-1]
		}
		if len(a[lvl]) != len(d[lvl]) {
			t.Fatalf("level %d: appends linked %v, descents %v", lvl, a[lvl], d[lvl])
		}
		for i := range a[lvl] {
			if a[lvl][i] != d[lvl][i] {
				t.Fatalf("level %d: appends linked %v, descents %v", lvl, a[lvl], d[lvl])
			}
		}
	}
	for k := uint64(0); k < key; k++ {
		if n := app.Get(k); n == nil || app.Seek(k) != n {
			t.Fatalf("Get/Seek(%d) miss an appended key", k)
		}
	}
}

// TestSkipListTailFromMidInsert: a key below the maximum that is linked
// taller than every later node becomes the last node of its upper levels,
// and the next append links behind it there.
func TestSkipListTailFromMidInsert(t *testing.T) {
	var s SkipList[int]
	for _, k := range []uint64{10, 100} {
		seedHeight(&s, 1)
		s.GetOrCreate(k)
	}
	seedHeight(&s, 3)
	mid := s.GetOrCreate(50)
	if s.last[0].key != 100 || s.last[1] != mid || s.last[2] != mid || s.last[3] != nil {
		t.Fatalf("finger after the mid insert: %v", s.last[:4])
	}
	checkTail(t, &s)
	seedHeight(&s, 4)
	app := s.GetOrCreate(200)
	if mid.level(1).Load() != app || mid.level(2).Load() != app || s.nextAt(nil, 3).Load() != app {
		t.Fatal("the append did not link behind the mid node's upper levels")
	}
	onLevel := checkSkipStructure(t, &s)
	for lvl := 0; lvl < 4; lvl++ {
		if !onLevel[lvl][app] {
			t.Fatalf("appended node missing from level %d", lvl)
		}
	}
	checkTail(t, &s)
}

// TestSkipListTailSweep sweeps the tail node, and a node that is last only
// on its upper levels, and checks that the next append is reachable on every
// level and that the list keeps no pointer to the swept nodes.
func TestSkipListTailSweep(t *testing.T) {
	for _, tc := range []struct {
		name  string
		keys  []uint64 // linked in order, key i at height hs[i]
		hs    []int
		swept []uint64
	}{
		{"tail", []uint64{10, 20, 30}, []int{2, 1, 4}, []uint64{30}},
		{"upper levels", []uint64{10, 20, 30, 40}, []int{1, 5, 1, 2}, []uint64{20}},
		{"every tail", []uint64{10, 20, 30, 40}, []int{1, 5, 1, 2}, []uint64{20, 30, 40}},
		{"all", []uint64{10, 20}, []int{3, 1}, []uint64{10, 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s SkipList[int]
			for i, k := range tc.keys {
				seedHeight(&s, tc.hs[i])
				s.GetOrCreate(k)
			}
			dead := markAndWatch(&s, tc.swept)
			if n := s.SweepMarked(0); n != len(tc.swept) {
				t.Fatalf("swept %d, want %d", n, len(tc.swept))
			}
			checkTail(t, &s)
			seedHeight(&s, 6)
			app := s.GetOrCreate(100)
			onLevel := checkSkipStructure(t, &s)
			for lvl := 0; lvl < 6; lvl++ {
				if !onLevel[lvl][app] {
					t.Fatalf("append after the sweep missing from level %d", lvl)
				}
			}
			if s.Get(100) != app || s.Seek(41) != app {
				t.Fatal("Get/Seek miss the append after the sweep")
			}
			checkTail(t, &s)
			runtime.GC()
			if live := countLive(dead); live != 0 {
				t.Fatalf("%d of %d swept nodes survived a collection", live, len(dead))
			}
			runtime.KeepAlive(&s)
		})
	}
}

// TestSkipListTailRevive: a marked tail is still linked, so an append goes
// behind it whether it is revived (and the sweep skips it) or swept later.
func TestSkipListTailRevive(t *testing.T) {
	for _, revive := range []bool{true, false} {
		var s SkipList[int]
		for k := uint64(1); k <= 4; k++ {
			s.GetOrCreate(k)
		}
		seedHeight(&s, 3)
		tail := s.GetOrCreate(5)
		s.MarkDeleted(tail)
		want := 1
		if revive {
			if !s.Revive(tail) {
				t.Fatal("Revive of the marked tail failed")
			}
			want = 0
		}
		if n := s.GetOrCreate(5); n != tail {
			t.Fatal("GetOrCreate of the marked tail's key made a new node")
		}
		seedHeight(&s, 2)
		app := s.GetOrCreate(6)
		if tail.Next() != app {
			t.Fatalf("revive=%v: append not linked behind the marked tail", revive)
		}
		if n := s.SweepMarked(0); n != want {
			t.Fatalf("revive=%v: swept %d, want %d", revive, n, want)
		}
		checkSkipStructure(t, &s)
		checkTail(t, &s)
		if s.Get(6) != app || (s.Get(5) == tail) != revive {
			t.Fatalf("revive=%v: Get(5)=%v Get(6)=%v", revive, s.Get(5), s.Get(6))
		}
		s.GetOrCreate(7)
		checkSkipStructure(t, &s)
		checkTail(t, &s)
	}
}

// TestSkipListTailMaxKey: the current maximum key returns its node, both
// through the lock-free Get and through the latched path a creator with a
// stale maxKey takes.
func TestSkipListTailMaxKey(t *testing.T) {
	var s SkipList[int]
	for k := uint64(0); k < 16; k++ {
		s.GetOrCreate(k)
	}
	tail := s.Get(15)
	if s.GetOrCreate(15) != tail {
		t.Fatal("GetOrCreate of the maximum made a new node")
	}
	s.maxKey.Store(0) // the value a creator racing the append read
	if s.GetOrCreate(15) != tail || s.GetOrCreate(3) != s.Get(3) {
		t.Fatal("the latched path made a new node for a linked key")
	}
	if s.Created() != 16 || s.Len() != 16 {
		t.Fatalf("created %d, Len %d, want 16", s.Created(), s.Len())
	}
}

// TestSkipListTailConcurrent races appenders on the same and adjacent keys
// above the maximum against readers and a sweeper. Every appender walks the
// same ascending keys, so they meet on one key or link neighbours; the
// sweeper marks and sweeps keys divisible by 3 close to the tail; readers
// must find every other key once an appender has linked it.
func TestSkipListTailConcurrent(t *testing.T) {
	const (
		appenders = 4
		keys      = 3000
	)
	var (
		s      SkipList[int]
		linked atomic.Int64 // highest key an appender has linked
		done   atomic.Bool
		swept  atomic.Int64
		wg, bg sync.WaitGroup
	)
	linked.Store(-1)
	kept := func(k uint64) bool { return k%3 != 0 }
	bg.Add(1)
	go func() { // sweeper
		defer bg.Done()
		for !done.Load() {
			hi := linked.Load()
			if hi < 0 {
				runtime.Gosched()
				continue
			}
			if n := s.Get(uint64(hi) - uint64(hi)%3); n != nil {
				s.MarkDeleted(n)
			}
			swept.Add(int64(s.SweepMarked(0)))
			runtime.Gosched()
		}
	}()
	for r := 0; r < 2; r++ {
		bg.Add(1)
		go func(x uint64) { // reader
			defer bg.Done()
			for !done.Load() {
				hi := linked.Load()
				if hi < 0 {
					runtime.Gosched()
					continue
				}
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				k := x % uint64(hi+1)
				if !kept(k) {
					k = k/3*3 + 1
					if k > uint64(hi) {
						continue
					}
				}
				if n := s.Get(k); n == nil || n.Key() != k {
					t.Errorf("Get(%d) = %v with key %d linked", k, n, hi)
					return
				}
				if n := s.Seek(k); n == nil || n.Key() != k {
					t.Errorf("Seek(%d) = %v with key %d linked", k, n, hi)
					return
				}
			}
		}(uint64(r) + 1)
	}
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := uint64(0); k < keys; k++ {
				if n := s.GetOrCreate(k); n.Key() != k {
					t.Errorf("GetOrCreate(%d) returned key %d", k, n.Key())
					return
				}
				for cur := linked.Load(); cur < int64(k) && !linked.CompareAndSwap(cur, int64(k)); cur = linked.Load() {
				}
				if k%64 == 0 {
					runtime.Gosched() // let the sweeper and readers in on one P
				}
			}
		}()
	}
	wg.Wait()
	// An appender that reaches a marked key again revives it, so every sweep
	// during the appends can come to nothing. With the appenders done, the
	// sweeper's next pass sweeps (the readers still run against it).
	for deadline := time.Now().Add(10 * time.Second); swept.Load() == 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	done.Store(true)
	bg.Wait()
	if swept.Load() == 0 {
		t.Fatal("the sweeper never swept a node")
	}
	s.SweepMarked(0)
	checkSkipStructure(t, &s)
	checkTail(t, &s)
	for k := uint64(0); k < keys; k++ {
		if n := s.Get(k); kept(k) && (n == nil || n.Key() != k) {
			t.Fatalf("kept key %d missing", k)
		}
	}
}
