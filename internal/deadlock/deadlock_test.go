package deadlock

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func graphOf(edges map[uint64][]uint64) *Graph {
	g := NewGraph()
	for n := range edges {
		g.AddNode(n)
	}
	for n, tos := range edges {
		for _, to := range tos {
			g.AddNode(to)
			g.AddEdge(n, to)
		}
	}
	return g
}

func TestNoCycle(t *testing.T) {
	g := graphOf(map[uint64][]uint64{1: {2}, 2: {3}, 3: nil})
	if c := g.Cycles(); len(c) != 0 {
		t.Fatalf("cycles = %v", c)
	}
}

func TestSimpleCycle(t *testing.T) {
	g := graphOf(map[uint64][]uint64{1: {2}, 2: {1}})
	c := g.Cycles()
	if len(c) != 1 || len(c[0]) != 2 {
		t.Fatalf("cycles = %v", c)
	}
}

func TestSelfLoop(t *testing.T) {
	g := graphOf(map[uint64][]uint64{1: {1}})
	if c := g.Cycles(); len(c) != 1 || len(c[0]) != 1 {
		t.Fatalf("cycles = %v", c)
	}
}

func TestTwoDisjointCycles(t *testing.T) {
	g := graphOf(map[uint64][]uint64{
		1: {2}, 2: {1},
		3: {4}, 4: {5}, 5: {3},
		6: {1}, // dangling edge into a cycle
	})
	c := g.Cycles()
	if len(c) != 2 {
		t.Fatalf("cycles = %v", c)
	}
	sizes := []int{len(c[0]), len(c[1])}
	sort.Ints(sizes)
	if sizes[0] != 2 || sizes[1] != 3 {
		t.Fatalf("cycle sizes = %v", sizes)
	}
}

func TestEdgesToNonNodesDropped(t *testing.T) {
	g := NewGraph()
	g.AddNode(1)
	g.AddEdge(1, 99) // 99 is not blocked: ignored
	g.AddEdge(99, 1)
	if c := g.Cycles(); len(c) != 0 {
		t.Fatalf("cycles = %v", c)
	}
}

func TestLargeChainNoOverflow(t *testing.T) {
	// The iterative Tarjan must handle deep graphs.
	g := NewGraph()
	const n = 100000
	for i := uint64(0); i < n; i++ {
		g.AddNode(i)
	}
	for i := uint64(0); i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(n-1, 0) // close the loop
	c := g.Cycles()
	if len(c) != 1 || len(c[0]) != n {
		t.Fatalf("expected one giant cycle, got %d components", len(c))
	}
}

func TestRandomGraphsAgainstNaive(t *testing.T) {
	// Compare cycle participation against a naive reachability check.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		edges := make(map[uint64][]uint64)
		for i := 0; i < n; i++ {
			edges[uint64(i)] = nil
		}
		for e := 0; e < n*2; e++ {
			a, b := uint64(rng.Intn(n)), uint64(rng.Intn(n))
			edges[a] = append(edges[a], b)
		}
		g := graphOf(edges)
		inCycle := make(map[uint64]bool)
		for _, comp := range g.Cycles() {
			for _, id := range comp {
				inCycle[id] = true
			}
		}
		// Naive: node is in a cycle iff it can reach itself via >= 1 edge.
		for i := 0; i < n; i++ {
			if reachesSelf(edges, uint64(i)) != inCycle[uint64(i)] {
				t.Fatalf("trial %d node %d: naive=%v tarjan=%v (edges %v)",
					trial, i, reachesSelf(edges, uint64(i)), inCycle[uint64(i)], edges)
			}
		}
	}
}

func reachesSelf(edges map[uint64][]uint64, start uint64) bool {
	seen := make(map[uint64]bool)
	var stack []uint64
	stack = append(stack, edges[start]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == start {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, edges[n]...)
	}
	return false
}

// fakeSource scripts a deadlock scenario for the detector.
type fakeSource struct {
	graph   *Graph
	blocked map[uint64]bool
	ends    map[uint64]uint64
	aborted []uint64
}

func (f *fakeSource) Snapshot(g *Graph) {
	for _, id := range f.graph.Nodes {
		g.AddNode(id)
	}
	for from, tos := range f.graph.Edges {
		for _, to := range tos {
			g.AddEdge(from, to)
		}
	}
}
func (f *fakeSource) StillBlocked(id uint64) bool { return f.blocked[id] }
func (f *fakeSource) EndTimestampOf(id uint64) uint64 {
	return f.ends[id]
}
func (f *fakeSource) Abort(id uint64) { f.aborted = append(f.aborted, id) }

func TestDetectorAbortsYoungest(t *testing.T) {
	f := &fakeSource{
		graph:   graphOf(map[uint64][]uint64{1: {2}, 2: {1}}),
		blocked: map[uint64]bool{1: true, 2: true},
		ends:    map[uint64]uint64{1: 10, 2: 20},
	}
	d := NewDetector(f, time.Hour)
	if n := d.RunOnce(); n != 1 {
		t.Fatalf("victims = %d", n)
	}
	if len(f.aborted) != 1 || f.aborted[0] != 2 {
		t.Fatalf("aborted %v, want youngest (2)", f.aborted)
	}
}

func TestDetectorSkipsFalseDeadlock(t *testing.T) {
	f := &fakeSource{
		graph:   graphOf(map[uint64][]uint64{1: {2}, 2: {1}}),
		blocked: map[uint64]bool{1: true, 2: false}, // 2 moved on
		ends:    map[uint64]uint64{1: 10, 2: 20},
	}
	d := NewDetector(f, time.Hour)
	if n := d.RunOnce(); n != 0 {
		t.Fatalf("victims = %d for dissolved cycle", n)
	}
	if len(f.aborted) != 0 {
		t.Fatalf("aborted %v", f.aborted)
	}
}

func TestDetectorBackground(t *testing.T) {
	f := &fakeSource{
		graph:   graphOf(map[uint64][]uint64{1: {2}, 2: {1}}),
		blocked: map[uint64]bool{1: true, 2: true},
		ends:    map[uint64]uint64{1: 10, 2: 20},
	}
	d := NewDetector(f, time.Millisecond)
	d.Start()
	d.Start() // idempotent
	deadline := time.Now().Add(time.Second)
	for d.Victims() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	d.Stop() // idempotent
	if d.Victims() == 0 {
		t.Fatal("background detector found no victims")
	}
}
