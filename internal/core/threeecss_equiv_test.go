package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/baselines"
	"repro/internal/congest"
	"repro/internal/cycles"
	"repro/internal/graph"
	"repro/internal/rounds"
)

// solve3 runs one 3-ECSS solve. All corpus instances are λ >= 3 (the same
// generator families the cut-enumeration corpus pins), so both variants
// accept them.
func solve3(t *testing.T, g *graph.Graph, weighted bool, opts ThreeECSSOptions) *ThreeECSSResult {
	t.Helper()
	solve := Solve3ECSSUnweighted
	if weighted {
		solve = Solve3ECSSWeighted
	}
	res, err := solve(g, opts)
	if err != nil {
		t.Fatalf("solve3 (weighted=%v): %v", weighted, err)
	}
	return res
}

// TestSolve3ECSSLabelingEquivalenceCorpus checks, across the ten generator
// families of the cut-enumeration corpus, the components the §5 loop is
// built from and the solve they drive. Along a seeded activation sequence
// from each base H (unweighted and weighted), after every AddEdges:
//   - the expBuckets pool the loop reads equals a full CoverCount scan of
//     every unselected edge (the from-scratch Lines 1–2), and
//   - a from-scratch RelabelScan leaves the engine's labels and its
//     termination predicate unchanged.
//
// The solve itself must be byte-identical with recycled simulation and
// labeling arenas (run with -race in CI).
func TestSolve3ECSSLabelingEquivalenceCorpus(t *testing.T) {
	la := cycles.NewLabelArena()
	na := congest.NewArena()
	for _, tc := range equivCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			for _, weighted := range []bool{false, true} {
				checkLabelingSteps(t, g, weighted)
				seq := solve3(t, g, weighted, ThreeECSSOptions{Rng: rand.New(rand.NewSource(42))})
				pooled := solve3(t, g, weighted, ThreeECSSOptions{
					Rng: rand.New(rand.NewSource(42)), Arena: na, LabelArena: la,
				})
				if !reflect.DeepEqual(seq, pooled) {
					t.Fatalf("weighted=%v: recycled arenas changed the result:\n%+v\n%+v",
						weighted, seq, pooled)
				}
			}
		})
	}
}

// checkLabelingSteps drives the incremental engine, cover index and
// exponent buckets the way solve3ECSS does, activating a seeded random
// half of each pool, and checks them against from-scratch recomputation
// after every step.
func checkLabelingSteps(t *testing.T, g *graph.Graph, weighted bool) {
	t.Helper()
	var h []int
	if weighted {
		base, err := Solve2ECSS(g, TwoECSSOptions{Rng: rand.New(rand.NewSource(3))})
		if err != nil {
			t.Fatal(err)
		}
		h = base.Edges
	} else {
		var err error
		if h, _, err = baselines.TwoECSSUnweighted2Approx(g, 0); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	eng, err := cycles.NewIncremental(g, h, 48, rng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Release()
	selected := make([]bool, g.M())
	for _, id := range h {
		selected[id] = true
	}
	var candIDs []int
	candIdx := make(map[int]int)
	for _, e := range g.Edges() {
		if !selected[e.ID] {
			candIdx[e.ID] = len(candIDs)
			candIDs = append(candIDs, e.ID)
		}
	}
	cover := cycles.NewCoverIndex(eng, candIDs)
	bk := newExpBuckets(len(candIDs))
	for step := 0; ; step++ {
		refreshBuckets(g, weighted, cover, bk, candIDs)
		pool, best := bk.pool(nil, candIDs)
		sort.Ints(pool)
		// The full scan the buckets replace: every unselected edge's
		// rounded cost-effectiveness, keeping those at the maximum.
		var want []int
		wantBest := -(1 << 30)
		for _, e := range g.Edges() {
			if selected[e.ID] {
				continue
			}
			ce := eng.CoverCount(e.U, e.V)
			if ce == 0 {
				continue
			}
			exp := ceExp(g, weighted, e.ID, ce)
			if exp > wantBest {
				wantBest, want = exp, want[:0]
			}
			if exp == wantBest {
				want = append(want, e.ID)
			}
		}
		if !reflect.DeepEqual(pool, want) || (len(want) > 0 && best != wantBest) {
			t.Fatalf("weighted=%v step %d: bucket pool %v at exp %d, full scan %v at exp %d",
				weighted, step, pool, best, want, wantBest)
		}
		if len(pool) == 0 || eng.ThreeEdgeConnected() {
			return
		}
		var added []int
		for _, id := range pool {
			if rng.Intn(2) == 0 || len(added) == 0 && id == pool[len(pool)-1] {
				added = append(added, id)
			}
		}
		for _, id := range added {
			cover.Deactivate(candIdx[id])
			bk.remove(candIdx[id])
			selected[id] = true
		}
		eng.AddEdges(added)

		phi := make(map[int]uint64)
		for _, e := range g.Edges() {
			if eng.IsActive(e.ID) {
				phi[e.ID] = eng.Phi(e.ID)
			}
		}
		done := eng.ThreeEdgeConnected()
		if _, err := eng.RelabelScan(); err != nil {
			t.Fatal(err)
		}
		for id, lab := range phi {
			if eng.Phi(id) != lab {
				t.Fatalf("weighted=%v step %d: edge %d label %#x incrementally, %#x rescanned",
					weighted, step, id, lab, eng.Phi(id))
			}
		}
		if eng.ThreeEdgeConnected() != done {
			t.Fatalf("weighted=%v step %d: termination predicate changed under a rescan", weighted, step)
		}
	}
}

// TestSolve3ECSSArenaEquivalence: pooled label + simulation arenas must not
// change any result, and consecutive solves recycling one arena pair must
// not leak state into each other.
func TestSolve3ECSSArenaEquivalence(t *testing.T) {
	la := cycles.NewLabelArena()
	na := congest.NewArena()
	for _, tc := range equivCorpus()[:4] {
		g := tc.build()
		want, err := Solve3ECSSUnweighted(g, ThreeECSSOptions{Rng: rand.New(rand.NewSource(7))})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := Solve3ECSSUnweighted(g, ThreeECSSOptions{
			Rng: rand.New(rand.NewSource(7)), Arena: na, LabelArena: la,
		})
		if err != nil {
			t.Fatalf("%s pooled: %v", tc.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: pooled arenas changed the result", tc.name)
		}
	}
}

// TestSolve3ECSSAccountingBreakdown pins the round-accounting contract of
// the augmentation loop: the 2D cost-effectiveness aggregation is charged
// exactly once per counted iteration — in particular NOT on the empty-pool
// fall-through pass whose aggregation result is discarded — and the
// measured label rounds in the breakdown equal LabelRoundsMeasured.
func TestSolve3ECSSAccountingBreakdown(t *testing.T) {
	byLabel := func(acc *rounds.Accountant) map[string]int64 {
		out := map[string]int64{}
		for _, c := range acc.Breakdown() {
			out[c.Label] = c.Rounds
		}
		return out
	}

	t.Run("normal run charges 2D per counted iteration", func(t *testing.T) {
		g := graph.Harary(3, 16, graph.UnitWeights())
		h, _, err := baselines.TwoECSSUnweighted2Approx(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		var acc rounds.Accountant
		res, err := solve3ECSS(g, h, false, ThreeECSSOptions{Rng: rand.New(rand.NewSource(3))}, &acc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations == 0 {
			t.Fatal("instance drift: want at least one iteration")
		}
		d := int64(g.DiameterEstimate())
		b := byLabel(&acc)
		if got, want := b[chargeAggregation], 2*d*int64(res.Iterations); got != want {
			t.Fatalf("aggregation charged %d rounds, want 2D·Iterations = %d", got, want)
		}
		if b[chargeLabelScans] != res.LabelRoundsMeasured {
			t.Fatalf("measured label rounds %d in breakdown, %d in result",
				b[chargeLabelScans], res.LabelRoundsMeasured)
		}
		if b[chargeLabelUpdates] == 0 {
			t.Fatal("no incremental dissemination was charged")
		}
	})

	t.Run("empty-pool fall-through is not an iteration", func(t *testing.T) {
		// Base = all of g with 1-bit labels: the n-1 tree edges pigeonhole
		// onto 2 label values, so Claim 5.10 can never certify, there are no
		// candidates left to add, and the very first pass falls through to
		// the exact verification. The discarded pass must not be counted or
		// charged as a sampling iteration — but discovering the empty pool
		// still costs one 2D aggregation, charged under its own label.
		g := graph.Harary(3, 12, graph.UnitWeights())
		all := make([]int, g.M())
		for i := range all {
			all[i] = i
		}
		var acc rounds.Accountant
		res, err := solve3ECSS(g, all, false, ThreeECSSOptions{
			Rng:       rand.New(rand.NewSource(1)),
			LabelBits: 1,
		}, &acc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 0 {
			t.Fatalf("fall-through pass was counted: Iterations = %d", res.Iterations)
		}
		b := byLabel(&acc)
		if got, ok := b[chargeAggregation]; ok {
			t.Fatalf("discarded pass was charged as a per-iteration aggregation (%d rounds)", got)
		}
		if got, want := b[chargeFinalAgg], 2*int64(g.DiameterEstimate()); got != want {
			t.Fatalf("final aggregation charged %d rounds, want 2D = %d", got, want)
		}
		if b[chargeLabelScans] != res.LabelRoundsMeasured || res.LabelRoundsMeasured == 0 {
			t.Fatalf("label scan accounting broken: breakdown %d, measured %d",
				b[chargeLabelScans], res.LabelRoundsMeasured)
		}
		if res.Rounds != acc.Total() {
			t.Fatalf("Rounds %d != accountant total %d", res.Rounds, acc.Total())
		}
	})
}

// mobiusRing builds the weighted Möbius ladder C(n; 1, n/2): an n-cycle of
// weight-1 edges plus all n/2 weight-8 diameter chords. λ=3, and the
// weighted 2-ECSS base is the cheap ring, so the labeling tree starts as a
// path of height n/2 = Θ(n) — the §5 worst case the Rebalance option
// targets.
func mobiusRing(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
	}
	for i := 0; i < n/2; i++ {
		g.AddEdge(i, i+n/2, 8)
	}
	return g
}

// TestSolve3ECSSRebalanceEquivalence drives the §5 tree rebalancing on
// Θ(n)-height bases and pins its contract: the rebalanced solve stays a
// valid deterministic 3-ECSS, the rebuild actually fires (a "rebalance"
// PhaseEvent with the post-rebuild height at most half the ring height),
// and disabling the option on the same instance never emits the event. The
// two trajectories legitimately diverge after the rebuild (the fresh engine
// resamples labels, as documented on the option), so equivalence is checked
// at the contract level — validity, determinism, and event discipline —
// not byte equality.
func TestSolve3ECSSRebalanceEquivalence(t *testing.T) {
	for _, n := range []int{128, 256} {
		run := func(rebalance bool, seed int64) (*ThreeECSSResult, []PhaseEvent) {
			var events []PhaseEvent
			g := mobiusRing(n)
			res, err := Solve3ECSSWeighted(g, ThreeECSSOptions{
				Rng:       rand.New(rand.NewSource(seed)),
				Rebalance: rebalance,
				Phase:     func(ev PhaseEvent) { events = append(events, ev) },
			})
			if err != nil {
				t.Fatalf("n=%d rebalance=%v: %v", n, rebalance, err)
			}
			g2 := mobiusRing(n)
			sub, _ := g2.SubgraphOf(res.Edges)
			if !sub.IsKEdgeConnected(3) {
				t.Fatalf("n=%d rebalance=%v: result is not 3-edge-connected", n, rebalance)
			}
			return res, events
		}
		countReb := func(events []PhaseEvent) (int, int) {
			count, minH := 0, 1<<30
			for _, ev := range events {
				if ev.Phase == "rebalance" {
					count++
					if ev.Items < minH {
						minH = ev.Items
					}
				}
			}
			return count, minH
		}

		on, onEvents := run(true, 5)
		nReb, newH := countReb(onEvents)
		if nReb == 0 {
			t.Fatalf("n=%d: Θ(n)-height base never triggered a rebalance", n)
		}
		if newH > n/4 {
			t.Fatalf("n=%d: rebalanced height %d did not halve the ring height %d", n, newH, n/2)
		}
		off, offEvents := run(false, 5)
		if c, _ := countReb(offEvents); c != 0 {
			t.Fatalf("n=%d: rebalance event emitted with the option off", n)
		}
		// Both paths must be individually deterministic.
		on2, _ := run(true, 5)
		if !reflect.DeepEqual(on, on2) {
			t.Fatalf("n=%d: rebalanced solve is not deterministic", n)
		}
		off2, _ := run(false, 5)
		if !reflect.DeepEqual(off, off2) {
			t.Fatalf("n=%d: unbalanced solve is not deterministic", n)
		}
		// The rebalanced run pays measured rebuild rounds on top; its result
		// quality must stay in the same regime as the unbalanced run.
		if on.Size > off.Size+off.Size/4 || off.Size > on.Size+on.Size/4 {
			t.Fatalf("n=%d: sizes diverged beyond the family's regime: rebalanced %d, unbalanced %d",
				n, on.Size, off.Size)
		}
	}
}
