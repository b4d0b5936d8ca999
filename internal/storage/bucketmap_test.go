package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBucketMapSizing(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{-5, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	} {
		if got := NewBucketMap(c.in).Len(); got != c.want {
			t.Errorf("NewBucketMap(%d).Len() = %d, want %d", c.in, got, c.want)
		}
	}
}

// sampledBlocks returns block numbers to check for a table of 2^b buckets:
// the first blocks, the last one and a few random ones.
func sampledBlocks(rng *rand.Rand, b uint) []uint64 {
	last := ^uint64(0) >> b
	blocks := []uint64{0, 1, 2, last}
	for range 3 {
		blocks = append(blocks, rng.Uint64()>>b)
	}
	return blocks
}

// TestBucketMapRotation: inside every aligned block of n keys the mapping is
// a rotation, for every power-of-two n from 1 to 2^20 over sampled blocks.
// Consecutive keys of a block land in consecutive buckets, so the n keys of
// a block fill the n buckets.
func TestBucketMapRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for b := uint(0); b <= 20; b++ {
		n := uint64(1) << b
		m := NewBucketMap(int(n))
		for _, blk := range sampledBlocks(rng, b) {
			base := blk << b
			first := m.Slot(base)
			for i := uint64(0); i < n; i++ {
				if got, want := m.Slot(base+i), (first+i)&(n-1); got != want {
					t.Fatalf("n=%d block %d: Slot(%d) = %d, want %d (a rotation by %d)", n, blk, base+i, got, want, first)
				}
			}
		}
	}
}

// TestBucketMapDenseNoCollisions: the dense range [0, n) maps to the
// identity, and any n consecutive keys starting on a block boundary fill
// every bucket once.
func TestBucketMapDenseNoCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 16, 1 << 10, 1 << 20} {
		m := NewBucketMap(n)
		for k := uint64(0); k < uint64(n); k++ {
			if s := m.Slot(k); s != k {
				t.Fatalf("n=%d: Slot(%d) = %d, want the identity", n, k, s)
			}
		}
		for range 4 {
			base := rng.Uint64() &^ uint64(n-1)
			seen := make([]bool, n)
			for i := uint64(0); i < uint64(n); i++ {
				s := m.Slot(base + i)
				if seen[s] {
					t.Fatalf("n=%d: keys from %d collide in bucket %d", n, base, s)
				}
				seen[s] = true
			}
		}
	}
}

// chainStats places keys in n buckets by slot and returns the mean number
// of other keys in a key's bucket and the longest chain.
func chainStats(keys []uint64, n int, slot func(uint64) uint64) (other float64, longest int) {
	counts := make([]int32, n)
	for _, k := range keys {
		counts[slot(k)]++
	}
	var pairs int64
	for _, c := range counts {
		pairs += int64(c) * int64(c-1)
		longest = max(longest, int(c))
	}
	return float64(pairs) / float64(len(keys)), longest
}

// TestBucketMapParityWithSplitmix: on key sets that are not dense the
// rotation collides as often as placing keys by splitmix64 alone: the mean
// number of other keys in a key's bucket is within 5 % and the longest
// chain is at most 2 longer.
func TestBucketMapParityWithSplitmix(t *testing.T) {
	const n = 1 << 20
	const count = 1_000_000
	rng := rand.New(rand.NewSource(3))
	stride := make([]uint64, count)
	for i := range stride {
		stride[i] = uint64(i) << 20
	}
	runs := make([]uint64, 0, count)
	for range count / 100 {
		start := rng.Uint64()
		for j := range uint64(100) {
			runs = append(runs, start+j)
		}
	}
	random := make([]uint64, count)
	for i := range random {
		random[i] = rng.Uint64()
	}
	m := NewBucketMap(n)
	splitmix := func(k uint64) uint64 { return mix(k) & (n - 1) }
	for _, c := range []struct {
		name string
		keys []uint64
	}{{"stride 2^20", stride}, {"runs of 100", runs}, {"random", random}} {
		otherRot, longRot := chainStats(c.keys, n, m.Slot)
		otherMix, longMix := chainStats(c.keys, n, splitmix)
		t.Logf("%s: other keys per bucket %.3f -> %.3f, longest chain %d -> %d", c.name, otherMix, otherRot, longMix, longRot)
		if otherRot > 1.05*otherMix {
			t.Errorf("%s: %.3f other keys per bucket, splitmix64 %.3f", c.name, otherRot, otherMix)
		}
		if longRot > longMix+2 {
			t.Errorf("%s: longest chain %d, splitmix64 %d", c.name, longRot, longMix)
		}
	}
}

// TestBucketMapSingleBucket: a one-bucket table maps every key to bucket 0.
func TestBucketMapSingleBucket(t *testing.T) {
	m := NewBucketMap(1)
	if err := quick.Check(func(k uint64) bool { return m.Slot(k) == 0 }, nil); err != nil {
		t.Fatal(err)
	}
}
