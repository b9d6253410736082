package verify

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/primitives"
)

func TestConnectivity(t *testing.T) {
	t.Run("connected graph verifies", func(t *testing.T) {
		g := graph.Grid(5, 5, graph.UnitWeights())
		rep, err := Connectivity(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatal("grid should verify connected")
		}
		if d := g.Diameter(); rep.Rounds > 4*d+12 {
			t.Errorf("rounds = %d, want O(D)=O(%d)", rep.Rounds, d)
		}
	})
	t.Run("disconnected graph rejected with full round accounting", func(t *testing.T) {
		// Two separate triangles: leader election disagrees across the
		// components and the BFS from the global minimum cannot span.
		g := graph.New(6)
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
			g.AddEdge(e[0], e[1], 1)
		}
		rep, err := Connectivity(g, nil)
		if err != nil {
			t.Fatalf("disconnected graph must be a verdict, not an error: %v", err)
		}
		if rep.OK {
			t.Fatal("disconnected graph verified as connected")
		}
		// Regression: the report must include the rounds of the failed BFS
		// phase, not just leader election.
		_, m1, electErr := primitives.ElectLeader(congest.NewTopology(g), nil)
		if !errors.Is(electErr, primitives.ErrNoGlobalLeader) {
			t.Fatalf("expected ErrNoGlobalLeader on disconnected graph, got %v", electErr)
		}
		if rep.Rounds <= m1.Rounds {
			t.Fatalf("Rounds = %d: dropped the failed BFS phase (election alone = %d)", rep.Rounds, m1.Rounds)
		}
	})
	t.Run("isolated vertex detected", func(t *testing.T) {
		g := graph.New(4)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(2, 0, 1) // vertex 3 is isolated
		rep, err := Connectivity(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK {
			t.Fatal("graph with isolated vertex verified as connected")
		}
	})
	t.Run("empty graph", func(t *testing.T) {
		rep, err := Connectivity(graph.New(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatal("empty graph is connected")
		}
	})
}

func TestTwoEdgeConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	t.Run("cycle passes", func(t *testing.T) {
		rep, err := TwoEdgeConnectivity(graph.Cycle(12, graph.UnitWeights()), 32, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatal("cycle should verify 2-edge-connected")
		}
	})
	t.Run("bridge detected with witness", func(t *testing.T) {
		g := graph.New(6)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(2, 0, 1)
		bridge := g.AddEdge(2, 3, 1)
		g.AddEdge(3, 4, 1)
		g.AddEdge(4, 5, 1)
		g.AddEdge(5, 3, 1)
		rep, err := TwoEdgeConnectivity(g, 32, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK {
			t.Fatal("bridge graph verified 2-edge-connected")
		}
		found := false
		for _, w := range rep.Witness {
			if w == bridge {
				found = true
			}
		}
		if !found {
			t.Fatalf("witness %v does not include the bridge %d", rep.Witness, bridge)
		}
	})
	t.Run("agrees with oracle on random graphs", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			g := graph.New(10)
			for i := 0; i+1 < 10; i++ {
				g.AddEdge(i, i+1, 1)
			}
			for j := 0; j < trial%7; j++ {
				u, v := rng.Intn(10), rng.Intn(10)
				if u != v {
					g.AddEdge(u, v, 1)
				}
			}
			rep, err := TwoEdgeConnectivity(g, 48, rng, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := g.TwoEdgeConnected(); rep.OK != want {
				t.Fatalf("trial %d: verifier %v, oracle %v", trial, rep.OK, want)
			}
		}
	})
}

func TestThreeEdgeConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tests := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"harary3", graph.Harary(3, 10, graph.UnitWeights()), true},
		{"harary4", graph.Harary(4, 12, graph.UnitWeights()), true},
		{"cycle", graph.Cycle(10, graph.UnitWeights()), false},
		{"figure2", graph.PaperFigure2Graph(), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := ThreeEdgeConnectivity(tc.g, 48, rng, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK != tc.want {
				t.Fatalf("verifier = %v, want %v", rep.OK, tc.want)
			}
		})
	}
	t.Run("agrees with oracle on random graphs", func(t *testing.T) {
		for trial := 0; trial < 15; trial++ {
			g := graph.RandomKConnected(10, 2, trial, rng, graph.UnitWeights())
			rep, err := ThreeEdgeConnectivity(g, 48, rng, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := g.IsKEdgeConnected(3); rep.OK != want {
				t.Fatalf("trial %d: verifier %v, oracle %v", trial, rep.OK, want)
			}
		}
	})
}

func TestVerifyRoundsAreNearDiameter(t *testing.T) {
	// O(D)-round claim (§5): verification rounds must track D, not n.
	rng := rand.New(rand.NewSource(3))
	small := graph.Harary(4, 64, graph.UnitWeights()) // D small
	big := graph.Harary(4, 512, graph.UnitWeights())  // D still small, n big
	repS, err := TwoEdgeConnectivity(small, 32, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := TwoEdgeConnectivity(big, 32, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	dS, dB := small.DiameterEstimate(), big.DiameterEstimate()
	if repB.Rounds > repS.Rounds*(dB+4)/(max(dS, 1))*4 {
		t.Errorf("rounds grew with n, not D: %d (D=%d) -> %d (D=%d)",
			repS.Rounds, dS, repB.Rounds, dB)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
