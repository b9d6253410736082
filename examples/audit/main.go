// Audit: given an existing network, run the distributed verification suite
// (§5: O(D)-round 2EC/3EC checks via cycle-space labels), and if the network
// is only 1-fault-tolerant, show the two upgrade paths this repository
// implements: a fault-tolerant MST (cheap, repairs after a failure) and a
// 2-ECSS backbone (survives the failure with no repair at all).
package main

import (
	"fmt"
	"log"
	"math/rand"

	kecss "repro"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/verify"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomKConnected(80, 2, 100, rng, graph.RandomWeights(rng, 200))
	fmt.Printf("network: %d nodes, %d links, diameter≈%d\n", g.N(), g.M(), g.DiameterEstimate())

	// Distributed audit.
	rep2, err := verify.TwoEdgeConnectivity(g, 48, rng, nil)
	if err != nil {
		log.Fatal(err)
	}
	rep3, err := verify.ThreeEdgeConnectivity(g, 48, rng, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistributed audit:\n")
	fmt.Printf("  survives any 1 link failure (2EC): %v  (%d rounds)\n", rep2.OK, rep2.Rounds)
	fmt.Printf("  survives any 2 link failures (3EC): %v  (%d rounds)\n", rep3.OK, rep3.Rounds)

	// Upgrade path 1: fault-tolerant MST — keep a spare per tree edge so a
	// post-failure MST is always on hand.
	ft, err := mst.FaultTolerantMST(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nupgrade 1 — FT-MST (repair after failure):\n")
	fmt.Printf("  %d links (MST %d + %d replacements), weight %d\n",
		len(ft.Edges), len(ft.MSTEdges), len(ft.Edges)-len(ft.MSTEdges), g.WeightOf(ft.Edges))

	// Upgrade path 2: 2-ECSS backbone — no repair needed at all.
	res, err := kecss.Solve2ECSS(g, kecss.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nupgrade 2 — 2-ECSS backbone (no repair needed):\n")
	fmt.Printf("  %d links, weight %d (MST alone: %d)\n", len(res.Edges), res.Weight, res.MSTWeight)

	// The difference under failure: FT-MST still disconnects until the
	// replacement is activated; the 2-ECSS never disconnects.
	fmt.Printf("\nunder a live failure of a backbone link:\n")
	fmt.Printf("  plain MST stays connected: %v\n", stillConnected(g, ft.MSTEdges))
	fmt.Printf("  2-ECSS stays connected:    %v\n", stillConnected(g, res.Edges))
}

// stillConnected reports whether removing each single edge from the given
// backbone always leaves it connected.
func stillConnected(g *graph.Graph, backbone []int) bool {
	for i := range backbone {
		rest := make([]int, 0, len(backbone)-1)
		rest = append(rest, backbone[:i]...)
		rest = append(rest, backbone[i+1:]...)
		sub, _ := g.SubgraphOf(rest)
		if !sub.Connected() {
			return false
		}
	}
	return true
}
