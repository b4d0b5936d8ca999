package storage

import (
	"sync"
	"unsafe"
)

const lockListShards = 64

// BucketLockTable stores the LockLists of Section 4.1.2: for every bucket
// with at least one bucket lock, the list of serializable transactions
// holding a lock on it. The LockCount lives in the bucket itself for a fast
// "is it locked at all?" check; the lists live here, keyed by bucket
// address, mirroring the paper's separate hash table of lock-list arrays.
type BucketLockTable struct {
	shards [lockListShards]lockListShard
}

type lockListShard struct {
	mu sync.Mutex
	m  map[*Bucket][]uint64
}

// NewBucketLockTable returns an empty lock-list table.
func NewBucketLockTable() *BucketLockTable {
	t := &BucketLockTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[*Bucket][]uint64)
	}
	return t
}

func (t *BucketLockTable) shard(b *Bucket) *lockListShard {
	// Hash the bucket address.
	h := uint64(uintptr(unsafe.Pointer(b))) * 0x9E3779B97F4A7C15
	return &t.shards[h>>58%lockListShards]
}

// Acquire adds txid to b's lock list and increments b's lock count. Multiple
// transactions can hold a lock on the same bucket. The count is incremented
// before the holder entry is appended (same publication order as
// RangeLockTable.Acquire): an inserter's LockCount()==0 fast path must never
// observe the holder list populated while the counter still reads zero.
func (t *BucketLockTable) Acquire(b *Bucket, txid uint64) {
	s := t.shard(b)
	s.mu.Lock()
	b.IncLocks()
	s.m[b] = append(s.m[b], txid)
	s.mu.Unlock()
}

// Release removes txid from b's lock list and decrements the lock count.
// Releasing a lock that is not held is a no-op.
func (t *BucketLockTable) Release(b *Bucket, txid uint64) {
	s := t.shard(b)
	s.mu.Lock()
	list := s.m[b]
	for i, id := range list {
		if id == txid {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			if len(list) == 0 {
				delete(s.m, b)
			} else {
				s.m[b] = list
			}
			b.DecLocks()
			s.mu.Unlock()
			return
		}
	}
	s.mu.Unlock()
}

// AppendHolders appends the transaction IDs holding locks on b to dst and
// returns the extended slice. Passing a reused buffer keeps the pessimistic
// insert path allocation-free.
func (t *BucketLockTable) AppendHolders(dst []uint64, b *Bucket) []uint64 {
	s := t.shard(b)
	s.mu.Lock()
	dst = append(dst, s.m[b]...)
	s.mu.Unlock()
	return dst
}
