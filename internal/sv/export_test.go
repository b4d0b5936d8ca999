package sv

// BucketKeyCounts returns the number of distinct keys in each bucket chain
// of hash index ord of t.
func BucketKeyCounts(t *Table, ord int) []int {
	ix := t.hashIxs[ord]
	counts := make([]int, len(ix.buckets))
	for i := range ix.buckets {
		keys := map[uint64]bool{}
		for r := ix.buckets[i].head; r != nil; r = r.link(ord).next {
			keys[r.link(ord).key] = true
		}
		counts[i] = len(keys)
	}
	return counts
}
