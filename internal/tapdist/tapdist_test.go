package tapdist

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/segments"
	"repro/internal/tree"
)

// centralCe computes |Ce| for every non-tree edge directly from tree paths —
// the oracle the distributed computation must match.
func centralCe(g *graph.Graph, tr *tree.Rooted, covered map[int]bool) map[int]int64 {
	inTree := tr.IsTreeEdge()
	out := make(map[int]int64)
	for _, e := range g.Edges() {
		if inTree[e.ID] {
			continue
		}
		var c int64
		for _, t := range tr.PathEdges(e.U, e.V) {
			if !covered[t] {
				c++
			}
		}
		out[e.ID] = c
	}
	return out
}

func decompose(t *testing.T, g *graph.Graph) (*tree.Rooted, *segments.Decomposition) {
	t.Helper()
	ids, _ := mst.Kruskal(g)
	tr, err := tree.FromEdges(g, ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := segments.Decompose(g, tr, segments.DefaultTarget(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	return tr, dec
}

func randomCoverage(tr *tree.Rooted, rng *rand.Rand, p float64) map[int]bool {
	covered := make(map[int]bool)
	for _, id := range tr.EdgeIDs() {
		covered[id] = rng.Float64() < p
	}
	return covered
}

func checkInstance(t *testing.T, g *graph.Graph, coverP float64, seed int64) {
	t.Helper()
	tr, dec := decompose(t, g)
	rng := rand.New(rand.NewSource(seed))
	covered := randomCoverage(tr, rng, coverP)
	res, err := ComputeCe(g, dec, covered, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := centralCe(g, tr, covered)
	if len(res.Ce) != len(want) {
		t.Fatalf("computed %d Ce values, want %d", len(res.Ce), len(want))
	}
	for id, w := range want {
		if res.Ce[id] != w {
			e := g.Edge(id)
			t.Fatalf("edge %d {%d,%d}: distributed Ce=%d, central=%d (segU=%d segV=%d markedU=%v markedV=%v)",
				id, e.U, e.V, res.Ce[id], w,
				dec.SegOfVertex[e.U], dec.SegOfVertex[e.V], dec.Marked[e.U], dec.Marked[e.V])
		}
	}
}

func TestComputeCeMatchesCentralKnownFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string]*graph.Graph{
		"cycle30":    graph.Cycle(30, graph.RandomWeights(rng, 20)),
		"grid6x7":    graph.Grid(6, 7, graph.RandomWeights(rng, 20)),
		"chain":      graph.CliqueChain(6, 5, 2, graph.RandomWeights(rng, 20)),
		"random60":   graph.RandomKConnected(60, 2, 90, rng, graph.RandomWeights(rng, 30)),
		"random120":  graph.RandomKConnected(120, 2, 200, rng, graph.RandomWeights(rng, 30)),
		"geometric":  graph.RandomGeometric(60, 0.3, 2, rng),
		"harary4":    graph.Harary(4, 40, graph.RandomWeights(rng, 10)),
		"multigraph": multigraphCase(rng),
	}
	for name, g := range cases {
		g := g
		t.Run(name, func(t *testing.T) {
			for _, p := range []float64{0, 0.3, 0.7, 1} {
				checkInstance(t, g, p, int64(p*100)+7)
			}
		})
	}
}

func multigraphCase(rng *rand.Rand) *graph.Graph {
	g := graph.RandomKConnected(25, 2, 10, rng, graph.RandomWeights(rng, 15))
	// Parallel edges stress the edge-ID-based bookkeeping.
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 1, 9)
	g.AddEdge(5, 6, 2)
	return g
}

func TestComputeCeManyRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.Intn(60)
		g := graph.RandomKConnected(n, 2, n+rng.Intn(2*n), rng, graph.RandomWeights(rng, 40))
		checkInstance(t, g, rng.Float64(), int64(trial))
	}
}

func TestComputeCeRoundsAreDPlusSqrtN(t *testing.T) {
	// Lemma 3.3 measured: the information phases cost O(D + √n) rounds.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{100, 400, 900} {
		g := graph.RandomKConnected(n, 2, 2*n, rng, graph.RandomWeights(rng, 50))
		tr, dec := decompose(t, g)
		covered := randomCoverage(tr, rng, 0.5)
		res, err := ComputeCe(g, dec, covered, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := g.DiameterEstimate()
		budget := 12 * (d + dec.MaxSegmentDiameter() + len(dec.Segments) + 4)
		if res.Metrics.Rounds > budget {
			t.Errorf("n=%d: measured %d rounds, want O(D+√n) <= %d", n, res.Metrics.Rounds, budget)
		}
	}
}

func TestComputeCeWithProvidedBFSTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomKConnected(30, 2, 40, rng, graph.RandomWeights(rng, 25))
	tr, dec := decompose(t, g)
	bfs, err := tree.FromBFS(g.BFS(0))
	if err != nil {
		t.Fatal(err)
	}
	covered := randomCoverage(tr, rng, 0.5)
	res, err := ComputeCe(g, dec, covered, bfs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := centralCe(g, tr, covered)
	for id, w := range want {
		if res.Ce[id] != w {
			t.Fatalf("edge %d: Ce=%d, want %d", id, res.Ce[id], w)
		}
	}
}
