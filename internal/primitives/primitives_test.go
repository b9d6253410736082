package primitives

import (
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

func TestBuildBFSTreeDepthsMatchDistances(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		root int
	}{
		{"cycle", graph.Cycle(11, graph.UnitWeights()), 0},
		{"grid", graph.Grid(4, 6, graph.UnitWeights()), 5},
		{"harary", graph.Harary(3, 16, graph.UnitWeights()), 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tr, m, err := BuildBFSTree(congest.NewTopology(tc.g), tc.root, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.g.BFS(tc.root)
			for v := 0; v < tc.g.N(); v++ {
				if tr.Depth[v] != want.Dist[v] {
					t.Errorf("depth[%d] = %d, want %d", v, tr.Depth[v], want.Dist[v])
				}
			}
			// O(D) rounds: the flood reaches eccentricity(root) and quiesces.
			ecc := tc.g.Eccentricity(tc.root)
			if m.Rounds > ecc+3 {
				t.Errorf("rounds = %d, want <= ecc+3 = %d", m.Rounds, ecc+3)
			}
		})
	}
}

func TestAggregate(t *testing.T) {
	g := graph.Grid(4, 4, graph.UnitWeights())
	tr, _, err := BuildBFSTree(congest.NewTopology(g), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, g.N())
	var wantSum int64
	wantMin := int64(1 << 60)
	wantMax := int64(-1 << 60)
	rng := rand.New(rand.NewSource(1))
	for v := range values {
		values[v] = rng.Int63n(1000) - 500
		wantSum += values[v]
		if values[v] < wantMin {
			wantMin = values[v]
		}
		if values[v] > wantMax {
			wantMax = values[v]
		}
	}
	for _, tc := range []struct {
		name string
		op   AggOp
		want int64
	}{
		{"sum", Sum, wantSum},
		{"min", Min, wantMin},
		{"max", Max, wantMax},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, m, err := Aggregate(congest.NewTopology(g), tr, values, tc.op, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("aggregate = %d, want %d", got, tc.want)
			}
			if m.Rounds > tr.Height()+3 {
				t.Errorf("rounds = %d, want <= height+3 = %d", m.Rounds, tr.Height()+3)
			}
		})
	}
}

func TestBroadcastValue(t *testing.T) {
	g := graph.Cycle(9, graph.UnitWeights())
	tr, _, err := BuildBFSTree(congest.NewTopology(g), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, m, err := BroadcastValue(congest.NewTopology(g), tr, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, x := range got {
		if x != 42 {
			t.Errorf("vertex %d got %d, want 42", v, x)
		}
	}
	if m.Rounds > tr.Height()+3 {
		t.Errorf("rounds = %d", m.Rounds)
	}
}

func TestUpcastCollectsDistinctItems(t *testing.T) {
	g := graph.Grid(5, 5, graph.UnitWeights())
	tr, _, err := BuildBFSTree(congest.NewTopology(g), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	items := make([][]int64, g.N())
	rng := rand.New(rand.NewSource(2))
	want := map[int64]bool{}
	for v := range items {
		for j := 0; j < rng.Intn(4); j++ {
			x := int64(rng.Intn(30))
			items[v] = append(items[v], x)
			want[x] = true
		}
	}
	got, m, err := Upcast(congest.NewTopology(g), tr, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d distinct items, want %d", len(got), len(want))
	}
	for _, x := range got {
		if !want[x] {
			t.Errorf("unexpected item %d", x)
		}
	}
	// Pipelining bound: height + ℓ + O(1).
	if m.Rounds > tr.Height()+len(want)+3 {
		t.Errorf("rounds = %d, want <= h+ℓ+3 = %d", m.Rounds, tr.Height()+len(want)+3)
	}
}

func TestUpcastPipeliningScalesLinearly(t *testing.T) {
	// With ℓ items all at one deep leaf, rounds ≈ depth + ℓ, not depth·ℓ.
	g := graph.Grid(2, 30, graph.UnitWeights())
	tr, _, err := BuildBFSTree(congest.NewTopology(g), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	deepest := 0
	for v := 0; v < g.N(); v++ {
		if tr.Depth[v] > tr.Depth[deepest] {
			deepest = v
		}
	}
	items := make([][]int64, g.N())
	const l = 20
	for j := int64(0); j < l; j++ {
		items[deepest] = append(items[deepest], j)
	}
	_, m, err := Upcast(congest.NewTopology(g), tr, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds > tr.Depth[deepest]+l+3 {
		t.Errorf("rounds = %d, want <= depth+ℓ+3 = %d (pipelining broken)",
			m.Rounds, tr.Depth[deepest]+l+3)
	}
}

func TestElectLeader(t *testing.T) {
	g := graph.Grid(4, 7, graph.UnitWeights())
	leader, m, err := ElectLeader(congest.NewTopology(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	if leader != 0 {
		t.Fatalf("leader = %d, want 0", leader)
	}
	if d := g.Diameter(); m.Rounds > d+3 {
		t.Errorf("rounds = %d, want <= D+3 = %d", m.Rounds, d+3)
	}
}
