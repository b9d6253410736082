package congest

import (
	"fmt"

	"repro/internal/graph"
)

// Topology is the immutable port index of one communication graph: what
// every Network over that graph needs to know about the graph's shape and
// nothing about a run. Build it once with NewTopology and pass it to every
// NewNetwork over the same graph; it is read-only after construction, so
// any number of networks — sequential or concurrent — may share it.
//
// A node's incident edges are its ports 0..deg-1, in adjacency order
// (ascending edge ID, since adjacency lists grow by AddEdge). All per-port
// tables are flat 2m arrays carved per node by portStart.
type Topology struct {
	g *graph.Graph
	m int // g.M() when built: the graph must not grow under a topology

	portStart []int32    // n+1 prefix sums of degree
	neighbors []Neighbor // 2m: port → incident edge as seen from the node
	slotOf    []int32    // 2m: port → message slot (2*edge + direction)
	byNbr     []int32    // 2m: each node's ports sorted by (neighbour ID, port)
	portAtU   []int32    // m: port of edge e in e.U's adjacency
	portAtV   []int32    // m: port of edge e in e.V's adjacency
}

// NewTopology builds the port index of g in O(n + m) with a constant number
// of allocations. g must not gain edges while the topology is in use;
// NewNetwork panics if it has.
func NewTopology(g *graph.Graph) *Topology {
	nv, m := g.N(), g.M()
	p2 := 2 * m
	i32 := make([]int32, nv+1+2*p2+2*m)
	t := &Topology{
		g:         g,
		m:         m,
		portStart: i32[: nv+1 : nv+1],
		slotOf:    i32[nv+1 : nv+1+p2 : nv+1+p2],
		byNbr:     i32[nv+1+p2 : nv+1+2*p2 : nv+1+2*p2],
		portAtU:   i32[nv+1+2*p2 : nv+1+2*p2+m : nv+1+2*p2+m],
		portAtV:   i32[nv+1+2*p2+m:],
		neighbors: make([]Neighbor, p2),
	}
	for v := 0; v < nv; v++ {
		t.portStart[v+1] = t.portStart[v] + int32(g.Degree(v))
	}
	for v := 0; v < nv; v++ {
		lo := t.portStart[v]
		for i, a := range g.Adj(v) {
			e := g.Edge(a.Edge)
			t.neighbors[lo+int32(i)] = Neighbor{ID: a.To, Edge: a.Edge, Weight: e.W}
			slot := int32(2 * a.Edge)
			if v == e.U {
				t.portAtU[a.Edge] = int32(i)
			} else {
				t.portAtV[a.Edge] = int32(i)
				slot++
			}
			t.slotOf[lo+int32(i)] = slot
		}
	}
	// byNbr without sorting: visiting senders u in ascending order and each
	// u's ports in ascending order appends, to every receiver v's list, v's
	// port of each edge {u, v} — ascending in u, and for parallel edges
	// ascending in edge ID, hence in v's port.
	fill := make([]int32, nv)
	copy(fill, t.portStart[:nv])
	for u := 0; u < nv; u++ {
		for _, a := range g.Adj(u) {
			v := a.To
			port := t.portAtU[a.Edge]
			if v == g.Edge(a.Edge).V {
				port = t.portAtV[a.Edge]
			}
			t.byNbr[fill[v]] = port
			fill[v]++
		}
	}
	return t
}

// Graph returns the graph the topology indexes.
func (t *Topology) Graph() *graph.Graph { return t.g }

// checkCurrent panics if the graph has gained edges since NewTopology: the
// port index would silently miss them.
func (t *Topology) checkCurrent() {
	if t.g.M() != t.m {
		panic(fmt.Sprintf("congest: topology built for %d edges, graph now has %d", t.m, t.g.M()))
	}
}
