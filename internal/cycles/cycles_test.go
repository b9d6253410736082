package cycles

import (
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/tree"
)

func bfsTree(t *testing.T, g *graph.Graph) *tree.Rooted {
	t.Helper()
	tr, err := tree.FromBFS(g.BFS(0))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func labelsFor(t *testing.T, g *graph.Graph, bits int, seed int64) *Labeling {
	t.Helper()
	l, err := ComputeLabels(congest.NewTopology(g), bfsTree(t, g), bits, rand.New(rand.NewSource(seed)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func pairSet(pairs []graph.CutPair) map[graph.CutPair]bool {
	s := make(map[graph.CutPair]bool, len(pairs))
	for _, p := range pairs {
		s[p] = true
	}
	return s
}

func TestComputeLabelsValidation(t *testing.T) {
	g := graph.Cycle(4, graph.UnitWeights())
	tr := bfsTree(t, g)
	if _, err := ComputeLabels(congest.NewTopology(g), tr, 0, rand.New(rand.NewSource(1)), nil); err == nil {
		t.Fatal("expected error for bits=0")
	}
	if _, err := ComputeLabels(congest.NewTopology(g), tr, 65, rand.New(rand.NewSource(1)), nil); err == nil {
		t.Fatal("expected error for bits=65")
	}
	if _, err := ComputeLabels(congest.NewTopology(g), tr, 32, nil, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

func TestProperty51OnKnownGraphs(t *testing.T) {
	// With wide labels, φ(e)=φ(f) iff {e,f} is a cut pair — compare against
	// the brute-force enumeration.
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle6", graph.Cycle(6, graph.UnitWeights())},
		{"figure2", graph.PaperFigure2Graph()},
		{"grid", graph.Grid(4, 4, graph.UnitWeights())},
		{"harary3", graph.Harary(3, 10, graph.UnitWeights())},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.g.TwoEdgeConnected() {
				t.Fatal("test graph must be 2-edge-connected")
			}
			l := labelsFor(t, tc.g, 48, 7)
			got := pairSet(l.CutPairs())
			want := pairSet(tc.g.CutPairs())
			if len(got) != len(want) {
				t.Fatalf("got %d cut pairs, want %d", len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Errorf("missing cut pair %v", p)
				}
			}
		})
	}
}

func TestProperty51Random(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomKConnected(10+rng.Intn(15), 2, rng.Intn(10), rng, graph.UnitWeights())
		l := labelsFor(t, g, 48, int64(trial))
		got := pairSet(l.CutPairs())
		want := pairSet(g.CutPairs())
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d pairs, want %d", trial, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("trial %d: missing %v", trial, p)
			}
		}
	}
}

func TestOneSidedErrorHoldsAtAnyWidth(t *testing.T) {
	// True cut pairs must share labels even with 1-bit labels (the error is
	// only in the other direction).
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomKConnected(12, 2, 5, rng, graph.UnitWeights())
		l := labelsFor(t, g, 1, int64(trial))
		for _, p := range g.CutPairs() {
			if l.Phi[p.A] != l.Phi[p.B] {
				t.Fatalf("trial %d: cut pair %v has different labels", trial, p)
			}
		}
	}
}

func TestNarrowLabelsProduceFalsePositives(t *testing.T) {
	// With 1-bit labels on a graph with many non-cut pairs, collisions are
	// overwhelmingly likely — checks the failure mode is real, which is what
	// E8 measures.
	g := graph.Harary(4, 16, graph.UnitWeights()) // 4-edge-connected: no cut pairs at all
	collisions := 0
	for seed := int64(0); seed < 10; seed++ {
		l := labelsFor(t, g, 1, seed)
		collisions += len(l.CutPairs())
	}
	if collisions == 0 {
		t.Fatal("expected 1-bit label collisions on a cut-pair-free graph")
	}
	// And with 48 bits there should be none.
	l := labelsFor(t, g, 48, 3)
	if extra := len(l.CutPairs()); extra != 0 {
		t.Fatalf("48-bit labels produced %d spurious pairs", extra)
	}
}

func TestLabelScanRoundsAreTreeHeight(t *testing.T) {
	g := graph.Grid(3, 20, graph.UnitWeights())
	tr := bfsTree(t, g)
	l, err := ComputeLabels(congest.NewTopology(g), tr, 32, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Metrics.Rounds > tr.Height()+3 {
		t.Fatalf("label rounds = %d, want <= height+3 = %d", l.Metrics.Rounds, tr.Height()+3)
	}
}

func TestTreeEdgeLabelIsXOROfCoveringEdges(t *testing.T) {
	// Definition check: φ(t) = XOR of φ(e) over non-tree e whose tree path
	// contains t.
	rng := rand.New(rand.NewSource(21))
	g := graph.RandomKConnected(15, 2, 10, rng, graph.UnitWeights())
	tr := bfsTree(t, g)
	l, err := ComputeLabels(congest.NewTopology(g), tr, 64, rand.New(rand.NewSource(22)), nil)
	if err != nil {
		t.Fatal(err)
	}
	inTree := tr.IsTreeEdge()
	for v := 0; v < g.N(); v++ {
		if v == tr.Root {
			continue
		}
		te := tr.ParentEdge[v]
		var want uint64
		for _, e := range g.Edges() {
			if inTree[e.ID] {
				continue
			}
			for _, pt := range tr.PathEdges(e.U, e.V) {
				if pt == te {
					want ^= l.Phi[e.ID]
					break
				}
			}
		}
		if l.Phi[te] != want {
			t.Fatalf("tree edge %d: label %x, want %x", te, l.Phi[te], want)
		}
	}
}

func TestCoverCountMatchesBruteForce(t *testing.T) {
	// |S²_e| from labels (Claim 5.8) must equal the number of cut pairs of H
	// that stop being cuts in H ∪ {e}.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		h := graph.RandomKConnected(9+rng.Intn(5), 2, 3, rng, graph.UnitWeights())
		l := labelsFor(t, h, 48, int64(100+trial))
		pairs := h.CutPairs()
		// Try a handful of prospective new edges.
		for probe := 0; probe < 10; probe++ {
			u := rng.Intn(h.N())
			v := rng.Intn(h.N())
			if u == v {
				continue
			}
			var want int64
			for _, p := range pairs {
				// e covers {f,f'} iff the pair is no longer a 2-cut in H+e.
				h2 := h.Clone()
				h2.AddEdge(u, v, 1)
				rem, _ := h2.SubgraphWithout(map[int]bool{p.A: true, p.B: true})
				if rem.Connected() {
					want++
				}
			}
			if got := l.CoverCount(u, v); got != want {
				t.Fatalf("trial %d: CoverCount(%d,%d) = %d, want %d", trial, u, v, got, want)
			}
			// CoversPair consistency.
			var viaPairs int64
			for _, p := range pairs {
				if l.CoversPair(u, v, p) {
					viaPairs++
				}
			}
			if viaPairs != want {
				t.Fatalf("trial %d: CoversPair count %d, want %d", trial, viaPairs, want)
			}
		}
	}
}

func TestThreeEdgeConnectedWith(t *testing.T) {
	t.Run("cycle is not 3ec", func(t *testing.T) {
		l := labelsFor(t, graph.Cycle(6, graph.UnitWeights()), 48, 1)
		if l.ThreeEdgeConnectedWith() {
			t.Fatal("cycle reported 3-edge-connected")
		}
	})
	t.Run("harary3 is 3ec", func(t *testing.T) {
		l := labelsFor(t, graph.Harary(3, 10, graph.UnitWeights()), 48, 2)
		if !l.ThreeEdgeConnectedWith() {
			t.Fatal("H_{3,10} not reported 3-edge-connected")
		}
	})
	t.Run("agrees with oracle on random graphs", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 10; trial++ {
			g := graph.RandomKConnected(10, 2, rng.Intn(12), rng, graph.UnitWeights())
			l := labelsFor(t, g, 48, int64(trial+50))
			if got, want := l.ThreeEdgeConnectedWith(), g.IsKEdgeConnected(3); got != want {
				t.Fatalf("trial %d: labels say %v, oracle says %v", trial, got, want)
			}
		}
	})
}
