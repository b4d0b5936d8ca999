package sv_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/sv"
	"repro/internal/workload"
)

// TestWorkloadLoadOneKeyPerBucket: the table workload.Table sizes for n
// rows, loaded by workload.Load with keys 0..n-1, has no hash collisions in
// either engine: every bucket chain holds at most one key, and every bucket
// holds one when n is the table size.
func TestWorkloadLoadOneKeyPerBucket(t *testing.T) {
	for _, n := range []uint64{1 << 12, 3000} {
		for _, scheme := range []core.Scheme{core.MVOptimistic, core.SingleVersion} {
			db, err := core.Open(core.Config{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := workload.Table(db, n)
			if err != nil {
				t.Fatal(err)
			}
			workload.Load(db, tbl, n)
			var counts []int
			if scheme == core.SingleVersion {
				st, _ := db.SV().Table(tbl.Name())
				counts = sv.BucketKeyCounts(st, 0)
			} else {
				mt, _ := db.MV().Table(tbl.Name())
				counts = mvBucketKeyCounts(mt.Index(0).(*storage.HashIndex))
			}
			keys := 0
			for i, c := range counts {
				keys += c
				if c > 1 || c == 0 && uint64(len(counts)) == n {
					t.Fatalf("%v, n=%d: bucket %d of %d holds %d keys", scheme, n, i, len(counts), c)
				}
			}
			if uint64(keys) != n {
				t.Fatalf("%v, n=%d: buckets hold %d keys, want %d", scheme, n, keys, n)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// mvBucketKeyCounts returns the number of distinct keys in each bucket
// chain of an MV hash index.
func mvBucketKeyCounts(ix *storage.HashIndex) []int {
	counts := make([]int, ix.NumBuckets())
	for i := range counts {
		keys := map[uint64]bool{}
		for v := ix.BucketAt(i).Head(); v != nil; v = v.Next(ix.Ord()) {
			keys[v.Key(ix.Ord())] = true
		}
		counts[i] = len(keys)
	}
	return counts
}
