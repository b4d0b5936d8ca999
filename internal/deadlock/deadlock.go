// Package deadlock detects cycles among wait-for dependencies (Section 4.4).
//
// Commit dependencies never deadlock (an older transaction never waits on a
// younger one), but wait-for dependencies can. The detector builds a
// wait-for graph from the currently blocked transactions — explicit edges
// from WaitingTxnLists, implicit edges from read-locked versions — finds
// strongly connected components with Tarjan's algorithm, re-verifies each
// candidate cycle (the graph is built while processing continues, so false
// deadlocks are possible), and aborts the youngest member of each real
// cycle.
package deadlock

// Graph is a directed wait-for graph: Edges[a] lists the transactions a is
// waiting for... precisely, an edge from T2 to T1 means T2 waits for T1 to
// complete, matching the paper's construction.
type Graph struct {
	Nodes []uint64
	Edges map[uint64][]uint64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{Edges: make(map[uint64][]uint64)}
}

// Reset empties the graph for the next detection pass, keeping its storage.
func (g *Graph) Reset() {
	g.Nodes = g.Nodes[:0]
	clear(g.Edges)
}

// AddNode registers a blocked transaction.
func (g *Graph) AddNode(id uint64) {
	if _, ok := g.Edges[id]; !ok {
		g.Nodes = append(g.Nodes, id)
		g.Edges[id] = nil
	}
}

// Contains reports whether id is a node in the graph.
func (g *Graph) Contains(id uint64) bool {
	_, ok := g.Edges[id]
	return ok
}

// AddEdge adds an edge from waiter to holder: waiter waits for holder. Both
// endpoints must already be nodes; edges to non-nodes are dropped, because
// only blocked transactions can participate in a deadlock.
func (g *Graph) AddEdge(waiter, holder uint64) {
	if !g.Contains(waiter) || !g.Contains(holder) {
		return
	}
	g.Edges[waiter] = append(g.Edges[waiter], holder)
}

// Cycles returns the strongly connected components with more than one
// member, plus single nodes with a self-loop. Each returned component is a
// candidate deadlock.
func (g *Graph) Cycles() [][]uint64 {
	sccs := tarjan(g)
	var out [][]uint64
	for _, comp := range sccs {
		if len(comp) > 1 {
			out = append(out, comp)
			continue
		}
		id := comp[0]
		for _, to := range g.Edges[id] {
			if to == id {
				out = append(out, comp)
				break
			}
		}
	}
	return out
}

// tarjan computes strongly connected components iteratively (Tarjan 1972,
// reference [25] of the paper). An iterative formulation avoids deep
// recursion on large graphs.
func tarjan(g *Graph) [][]uint64 {
	type frame struct {
		node uint64
		edge int
	}
	index := make(map[uint64]int, len(g.Nodes))
	lowlink := make(map[uint64]int, len(g.Nodes))
	onStack := make(map[uint64]bool, len(g.Nodes))
	var stack []uint64
	var sccs [][]uint64
	next := 0

	for _, root := range g.Nodes {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{node: root}}
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			edges := g.Edges[f.node]
			if f.edge < len(edges) {
				to := edges[f.edge]
				f.edge++
				if _, seen := index[to]; !seen {
					index[to] = next
					lowlink[to] = next
					next++
					stack = append(stack, to)
					onStack[to] = true
					frames = append(frames, frame{node: to})
				} else if onStack[to] && index[to] < lowlink[f.node] {
					lowlink[f.node] = index[to]
				}
				continue
			}
			// All edges done: pop the frame.
			n := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].node
				if lowlink[n] < lowlink[p] {
					lowlink[p] = lowlink[n]
				}
			}
			if lowlink[n] == index[n] {
				var comp []uint64
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == n {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}
	return sccs
}
