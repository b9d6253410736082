// Cutlabels reproduces Figure 2 of the paper: cycle-space labels on a small
// 2-edge-connected graph expose its cut pairs (edges sharing a label), and
// adding two more chords makes every label unique — no cut pairs, i.e. the
// graph becomes 3-edge-connected.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/congest"
	"repro/internal/cycles"
	"repro/internal/graph"
	"repro/internal/tree"
)

func printLabels(g *graph.Graph, title string) *cycles.Labeling {
	tr, err := tree.FromBFS(g.BFS(0))
	if err != nil {
		log.Fatal(err)
	}
	l, err := cycles.ComputeLabels(congest.NewTopology(g), tr, 16, rand.New(rand.NewSource(8)), nil)
	if err != nil {
		log.Fatal(err)
	}
	inTree := tr.IsTreeEdge()
	fmt.Printf("\n%s (labels computed in %d CONGEST rounds):\n", title, l.Metrics.Rounds)
	for _, e := range g.Edges() {
		kind := "chord"
		if inTree[e.ID] {
			kind = "tree "
		}
		fmt.Printf("  %s edge %d–%d  φ = %04x\n", kind, e.U, e.V, l.Phi[e.ID])
	}
	pairs := l.CutPairs()
	if len(pairs) == 0 {
		fmt.Println("  no equal labels → no cut pairs → 3-edge-connected")
	}
	for _, p := range pairs {
		a, b := g.Edge(p.A), g.Edge(p.B)
		fmt.Printf("  cut pair: {%d–%d, %d–%d} (shared label %04x)\n",
			a.U, a.V, b.U, b.V, l.Phi[p.A])
	}
	return l
}

func main() {
	// Left side of Figure 2: tree + 3 chords, two cut pairs.
	g := graph.PaperFigure2Graph()
	printLabels(g, "Figure 2, left: 2-edge-connected graph with cut pairs")

	// Right side: two additional chords (touching the degree-2 vertices 0
	// and 5) kill all cut pairs.
	g2 := g.Clone()
	g2.AddEdge(0, 4, 1)
	g2.AddEdge(1, 5, 1)
	l := printLabels(g2, "Figure 2, right: two chords added")
	fmt.Printf("\n3-edge-connected by labels: %v, by exact check: %v\n",
		l.ThreeEdgeConnectedWith(), g2.IsKEdgeConnected(3))
}
