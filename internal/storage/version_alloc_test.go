//go:build !race

// The race detector makes sync.Pool drop Puts at random, so a pooled
// version is reallocated on some Gets; these counts only hold without it.

package storage

import (
	"bytes"
	"testing"

	"repro/internal/field"
)

// TestVersionOneAllocation: a version for a table of one or two indexes,
// with a payload that fits inline, is one object.
func TestVersionOneAllocation(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, InlinePayload)
	for nix := 1; nix <= 2; nix++ {
		n := testing.AllocsPerRun(100, func() {
			NewVersion(payload, nix, field.FromTS(1), field.FromTS(field.Infinity))
		})
		if n != 1 {
			t.Errorf("%d-index version: %v allocations, want 1", nix, n)
		}
	}
}

// TestVersionPoolSteadyStateAllocs: once a recycled version has grown its
// extension, reusing it allocates nothing, whatever the table's index count
// and wherever the payload lives (inline or in the arena).
func TestVersionPoolSteadyStateAllocs(t *testing.T) {
	var p VersionPool
	var a PayloadArena
	for _, nix := range []int{1, 2, 4} {
		for _, size := range []int{24, InlinePayload, 200} {
			payload := bytes.Repeat([]byte{2}, size)
			cycle := func() {
				p.Put(p.GetIn(&a, payload, nix, field.FromTS(1), field.FromTS(field.Infinity)))
			}
			cycle()
			if n := testing.AllocsPerRun(100, cycle); n != 0 {
				t.Errorf("%d indexes, %d-byte payload: %v allocations per Get/Put, want 0", nix, size, n)
			}
		}
	}
}
