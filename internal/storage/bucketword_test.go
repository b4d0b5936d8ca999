package storage

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/field"
)

// TestBucketWordConcurrent: Link and Unlink latch bit 0 of a bucket's word
// while BucketLockTable counts locks in bits 1..31 of the same word, and
// neither may disturb the other. Writers link versions into a one-bucket
// index and unlink every other one, the one linked just before, while lockers take and drop bucket locks
// on that bucket, and one more goroutine holds the latch across yields and
// checks that its bit stays set. Afterwards the chain holds exactly the
// versions not unlinked, and the word holds no latch and no lock.
func TestBucketWordConcurrent(t *testing.T) {
	const writers, lockers, rounds = 4, 2, 2000
	tbl := newTable(t, 1)
	b := hashIx(tbl).BucketAt(0)
	blt := NewBucketLockTable()
	kept := make([][]*Version, writers)
	var wg, lwg sync.WaitGroup
	var stop atomic.Bool
	lwg.Add(1)
	go func() {
		defer lwg.Done()
		for !stop.Load() {
			b.latch()
			for i := 0; i < 2; i++ {
				runtime.Gosched()
				if b.word.Load()&bucketLatch == 0 {
					t.Error("latch bit cleared while the latch is held")
				}
			}
			b.unlatch()
			runtime.Gosched()
		}
	}()
	for l := 0; l < lockers; l++ {
		lwg.Add(1)
		go func(l int) {
			defer lwg.Done()
			for i := uint64(1); !stop.Load(); i++ {
				id := uint64(l)<<32 | i
				blt.Acquire(b, id)
				if b.LockCount() < 1 {
					t.Errorf("LockCount = %d while a lock is held", b.LockCount())
				}
				blt.Release(b, id)
			}
		}(l)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prev *Version
			for i := 0; i < rounds; i++ {
				v := NewVersion(pay(uint64(w*rounds+i)), 1, field.FromTS(1), field.FromTS(field.Infinity))
				tbl.Insert(v)
				if i%2 == 1 {
					tbl.Unlink(prev)
					kept[w] = append(kept[w], v)
				}
				prev = v
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	lwg.Wait()

	want := make(map[*Version]bool)
	for _, vs := range kept {
		for _, v := range vs {
			want[v] = true
		}
	}
	n := 0
	for v := b.Head(); v != nil; v = v.Next(0) {
		if !want[v] {
			t.Fatalf("chain holds key %d, which was unlinked or seen twice", keyOf(v.Payload()))
		}
		delete(want, v)
		n++
	}
	if len(want) != 0 {
		t.Fatalf("chain lost %d of %d surviving versions", len(want), n+len(want))
	}
	if c := b.LockCount(); c != 0 {
		t.Fatalf("LockCount = %d after every lock was released", c)
	}
	if w := b.word.Load(); w != 0 {
		t.Fatalf("bucket word = %#x after quiesce, want 0 (no latch, no locks)", w)
	}
}
