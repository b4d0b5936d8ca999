//go:build !race

// The race detector makes sync.Pool drop Puts at random, so a pooled
// version is reallocated on some Gets; these counts only hold without it.

package storage

import (
	"bytes"
	"testing"

	"repro/internal/field"
)

// TestVersionOneAllocation: a version for a table of one or two indexes is
// one object, whether its payload fits inline or is kept by reference (a
// larger payload is not copied).
func TestVersionOneAllocation(t *testing.T) {
	for _, size := range []int{InlinePayload, InlinePayload + 1, 8 << 10, 8<<10 + 1} {
		payload := bytes.Repeat([]byte{1}, size)
		for nix := 1; nix <= 2; nix++ {
			n := testing.AllocsPerRun(100, func() {
				NewVersion(payload, nix, field.FromTS(1), field.FromTS(field.Infinity))
			})
			if n != 1 {
				t.Errorf("%d-index version, %d-byte payload: %v allocations, want 1", nix, size, n)
			}
		}
	}
}

// TestVersionPoolSteadyStateAllocs: once a recycled version has grown its
// extension, reusing it allocates nothing, whatever the table's index count
// and whether the payload is inline or kept by reference.
func TestVersionPoolSteadyStateAllocs(t *testing.T) {
	var p VersionPool
	for _, nix := range []int{1, 2, 4} {
		for _, size := range []int{24, InlinePayload, 200} {
			payload := bytes.Repeat([]byte{2}, size)
			cycle := func() {
				p.Put(p.Get(payload, nix, field.FromTS(1), field.FromTS(field.Infinity)))
			}
			cycle()
			if n := testing.AllocsPerRun(100, cycle); n != 0 {
				t.Errorf("%d indexes, %d-byte payload: %v allocations per Get/Put, want 0", nix, size, n)
			}
		}
	}
}
