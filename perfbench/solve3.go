package main

import (
	"math/rand"
	"time"

	kecss "repro"
	"repro/internal/graph"
	"repro/internal/wire"
)

// solve3-large: the ROADMAP's large-bench family, solved one at a time with
// the default executor. Its time goes to the Dinic connectivity checks
// (validate, correction) and to the cycle-space augmentation
// (cycles.CoverIndex, tree.HPD, candidate buckets).
const (
	solve3N     = 1500
	solve3Extra = 3000
	// solve3Estimate is one solve's time on the reference box; a run gets
	// one distinct graph per estimate of its budget, so graph-to-graph
	// variation averages out and every run solves the same graph list.
	solve3Estimate = 2500 * time.Millisecond
	// solve3TracedGraphs graphs are solved, traced and untraced, by the
	// traced pass.
	solve3TracedGraphs = 3
)

type solve3Input struct {
	graphs []*graph.Graph
	seeds  []int64
}

func solve3Inputs(seed int64, graphs int) (*solve3Input, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &solve3Input{}
	for i := 0; i < graphs; i++ {
		in.graphs = append(in.graphs, graph.RandomKConnected(solve3N, 3, solve3Extra, rng, graph.UnitWeights()))
		in.seeds = append(in.seeds, rng.Int63())
	}
	return in, nil
}

// solve3Outputs keeps the first output per graph: later solves of the same
// graph must reproduce it byte for byte, and each is audited once.
type solve3Outputs struct {
	digest []string
	edges  [][]int
	weight []int64
}

func (o *solve3Outputs) record(r *report, gi int, res *kecss.ThreeECSSResult) {
	d := wire.SolveResultDigest(res.Edges, res.Weight, res.Rounds)
	if o.digest[gi] == "" {
		o.digest[gi], o.edges[gi], o.weight[gi] = d, res.Edges, res.Weight
		return
	}
	if d != o.digest[gi] {
		r.fail("graph %d: solve output %s differs from the first solve's %s", gi, d, o.digest[gi])
	}
}

// audit checks every kept output outside the timed region and folds the
// workload digest; it returns the mean output size over the solved graphs.
func (o *solve3Outputs) audit(r *report, in *solve3Input) float64 {
	var total int64
	solved := 0
	for gi, g := range in.graphs {
		if o.digest[gi] == "" {
			continue // a short traced pass may not reach every graph
		}
		if !kecss.VerifyKEdgeConnected(g, o.edges[gi], 3) {
			r.fail("graph %d: output is not a 3-edge-connected spanning subgraph", gi)
		}
		total += o.weight[gi]
		solved++
	}
	r.digest = foldDigests(o.digest)
	return float64(total) / float64(solved)
}

func newSolve3Outputs(graphs int) *solve3Outputs {
	return &solve3Outputs{
		digest: make([]string, graphs),
		edges:  make([][]int, graphs),
		weight: make([]int64, graphs),
	}
}

func runSolve3(e env) (*report, error) {
	r := &report{workload: "solve3-large"}
	graphs := max(3, int((e.budget+solve3Estimate-1)/solve3Estimate))
	in, setup, err := medianSetup(3, func() (*solve3Input, error) { return solve3Inputs(e.seed, graphs) }, nil)
	if err != nil {
		return nil, err
	}
	out := newSolve3Outputs(graphs)
	var lat []float64
	start := time.Now()
	for i := 0; i < graphs || time.Since(start) < e.budget; i++ {
		gi := i % graphs
		t0 := time.Now()
		res, err := kecss.Solve3ECSSUnweighted(in.graphs[gi], kecss.WithSeed(in.seeds[gi]))
		d := time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail("graph %d: %v", gi, err)
			continue
		}
		lat = append(lat, ms(d))
		out.record(r, gi, res)
	}
	wall := time.Since(start)
	if len(lat) == 0 {
		return nil, errNoSolves
	}
	weight := out.audit(r, in)
	r.add("setup_s", setup, "s")
	r.add("solves_per_s", float64(len(lat))/wall.Seconds(), "1/s")
	r.add("solve_p50_ms", median(lat), "ms")
	r.add("solution_weight", weight, "weight") // unit weights: the edge count
	r.notef("%d solves of %d graphs (n=%d, m=%d) in %.2fs; sample too small for a tail percentile",
		len(lat), graphs, solve3N, in.graphs[0].M(), wall.Seconds())
	return r, nil
}

// traceSolve3 alternates traced and untraced solves of the same graph, so
// the observer's cost is measured on identical work, then times the graph
// layer's connectivity checks directly on the inputs.
func traceSolve3(e env) (*report, error) {
	r := &report{workload: "solve3-large"}
	in, err := solve3Inputs(e.seed, solve3TracedGraphs)
	if err != nil {
		return nil, err
	}
	out := newSolve3Outputs(solve3TracedGraphs)
	b := newPhaseBreakdown()
	var tracedMS float64
	var overhead []float64 // traced / untraced time of each pair
	start := time.Now()
	// Stop only after an untraced solve, so every traced solve has its pair.
	for i := 0; i%2 == 1 || i < 2 || time.Since(start) < e.budget; i++ {
		gi := (i / 2) % solve3TracedGraphs
		traced := i%2 == 0
		var log phaseLog
		opts := []kecss.Option{kecss.WithSeed(in.seeds[gi])}
		if traced {
			opts = append(opts, kecss.WithPhaseObserver(log.observe))
		}
		t0 := time.Now()
		res, err := kecss.Solve3ECSSUnweighted(in.graphs[gi], opts...)
		t1 := time.Now()
		r.attempted++
		if err != nil {
			r.fail("graph %d: %v", gi, err)
			continue
		}
		out.record(r, gi, res)
		if traced {
			b.addSolve(t0, t1, log.evs, res.Rounds)
			tracedMS = ms(t1.Sub(t0))
		} else {
			overhead = append(overhead, tracedMS/ms(t1.Sub(t0)))
		}
	}
	if b.solves == 0 {
		return nil, errNoSolves
	}
	out.audit(r, in)

	var connMS, pairsMS []float64
	for _, g := range in.graphs {
		t0 := time.Now()
		lam := g.EdgeConnectivityUpTo(3)
		connMS = append(connMS, ms(time.Since(t0)))
		t0 = time.Now()
		pairs := g.CutPairs()
		pairsMS = append(pairsMS, ms(time.Since(t0)))
		if lam < 3 || len(pairs) > 0 {
			r.fail("input graph is not 3-edge-connected (λ≥%d, %d cut pairs)", lam, len(pairs))
		}
	}

	for _, p := range []string{"validate", "base", "base-label", "augment", "correction"} {
		r.add("core."+p+"_ms", b.perSolveMS(p), "ms")
	}
	r.add("core.other_ms", b.otherMS(), "ms")
	r.add("core.coverage_pct", b.coveragePct(), "%")
	r.add("core.augment_iterations", b.perSolve(b.iters["augment"]), "count")
	r.add("core.augment_edges", b.perSolve(b.items["augment"]), "count")
	r.add("core.rounds", b.perSolve(b.rounds), "count")
	r.add("core.messages", b.perSolve(b.msgs), "count")
	r.add("core.trace_overhead_ratio", median(overhead), "ratio")
	r.add("graph.edge_connectivity_ms", median(connMS), "ms")
	r.add("graph.cut_pairs_ms", median(pairsMS), "ms")
	b.notePhases(r)
	r.notef("trace overhead: median traced/untraced time over %d pairs of solves of the same graph", len(overhead))
	return r, nil
}
