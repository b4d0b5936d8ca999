package storage

import "testing"

// Regression tests for the lookup TOCTOU found by the multi-table soak
// harness: Get and Seek used to re-load the predecessor's level-0 pointer
// after the descent, and a concurrent insert of a key between the
// predecessor and the target rewrote that pointer between the two loads —
// turning a permanently linked key into a spurious miss (Get) or handing
// back a node below the requested bound (Seek). Both must act on the
// successor observed during the walk itself.

// churnNeighbor creates and reclaims key k in a tight loop, rewriting the
// level-0 pointer of k's predecessor on every round.
func churnNeighbor(s *SkipList[int], k uint64, rounds int) {
	for i := 0; i < rounds; i++ {
		n := s.GetOrCreate(k)
		s.MarkDeleted(n)
		s.SweepMarked(0)
	}
}

func TestSkipListGetSurvivesNeighborInsert(t *testing.T) {
	var s SkipList[int]
	const target = 100
	for k := uint64(10); k <= 200; k += 10 {
		s.GetOrCreate(k)
	}

	rounds := 200000
	if testing.Short() {
		rounds = 20000
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		churnNeighbor(&s, target-1, rounds)
	}()

	misses := 0
	for {
		select {
		case <-done:
			if misses > 0 {
				t.Fatalf("Get(%d) returned nil %d times; the key was linked throughout", target, misses)
			}
			return
		default:
		}
		if s.Get(target) == nil {
			misses++
		}
	}
}

func TestSkipListSeekHonorsLowerBound(t *testing.T) {
	var s SkipList[int]
	const lo = 100
	for k := uint64(10); k <= 200; k += 10 {
		s.GetOrCreate(k)
	}

	rounds := 200000
	if testing.Short() {
		rounds = 20000
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		churnNeighbor(&s, lo-1, rounds)
	}()

	below := 0
	for {
		select {
		case <-done:
			if below > 0 {
				t.Fatalf("Seek(%d) returned a key below the bound %d times", lo, below)
			}
			return
		default:
		}
		if n := s.Seek(lo); n == nil || n.Key() < lo {
			below++
		}
	}
}
