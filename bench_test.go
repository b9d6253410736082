package kecss

// One benchmark per reproduction experiment (E1–E14, each documented on its
// function in internal/experiments against the paper's claims in PAPER.md)
// plus the ablations (A1–A3) and micro-benchmarks of the
// substrates. The experiment benches run the Quick-scale sweeps so that
// `go test -bench=.` terminates in minutes; `cmd/kecss-bench` (without
// -quick) prints the full tables.

import (
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/primitives"
	"repro/internal/segments"
	"repro/internal/tap"
	"repro/internal/tree"
)

func benchExperiment(b *testing.B, f func(experiments.Scale) (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f(experiments.Scale{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Reproduction experiments (one per paper claim) -------------------------

func BenchmarkE1_2ECSSRounds(b *testing.B)    { benchExperiment(b, experiments.E1) }
func BenchmarkE2_2ECSSRatio(b *testing.B)     { benchExperiment(b, experiments.E2) }
func BenchmarkE3_TAPIterations(b *testing.B)  { benchExperiment(b, experiments.E3) }
func BenchmarkE4_KECSSRounds(b *testing.B)    { benchExperiment(b, experiments.E4) }
func BenchmarkE5_KECSSRatio(b *testing.B)     { benchExperiment(b, experiments.E5) }
func BenchmarkE6_AugIterations(b *testing.B)  { benchExperiment(b, experiments.E6) }
func BenchmarkE7_3ECSSRounds(b *testing.B)    { benchExperiment(b, experiments.E7) }
func BenchmarkE8_CycleSpace(b *testing.B)     { benchExperiment(b, experiments.E8) }
func BenchmarkE9_Segments(b *testing.B)       { benchExperiment(b, experiments.E9) }
func BenchmarkE10_Thurimella(b *testing.B)    { benchExperiment(b, experiments.E10) }
func BenchmarkE11_TAPDistRounds(b *testing.B) { benchExperiment(b, experiments.E11) }
func BenchmarkE12_Verification(b *testing.B)  { benchExperiment(b, experiments.E12) }
func BenchmarkE13_FTMST(b *testing.B)         { benchExperiment(b, experiments.E13) }
func BenchmarkE14_Weighted3ECSS(b *testing.B) { benchExperiment(b, experiments.E14) }

// --- Ablations (A1–A3, internal/experiments) ---------------------------------

func BenchmarkAblation_VoteThreshold(b *testing.B) {
	benchExperiment(b, experiments.AblationVoteThreshold)
}
func BenchmarkAblation_Rounding(b *testing.B) { benchExperiment(b, experiments.AblationRounding) }
func BenchmarkAblation_PhaseLen(b *testing.B) { benchExperiment(b, experiments.AblationPhaseLength) }

// --- Micro-benchmarks of the substrates --------------------------------------

func BenchmarkMicro_KruskalMST(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomKConnected(1000, 2, 3000, rng, graph.RandomWeights(rng, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mst.Kruskal(g)
	}
}

func BenchmarkMicro_DistributedBFS(b *testing.B) {
	b.ReportAllocs()
	g := graph.Grid(16, 64, graph.UnitWeights())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := primitives.BuildBFSTree(congest.NewTopology(g), 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulator-round micro-benchmarks ----------------------------------------
//
// These isolate the per-round cost of the CONGEST simulator itself, which
// every experiment funnels through. Two workloads at n=1k and n=4k:
//
//   - broadcast: every node broadcasts on every incident edge every round —
//     the saturated regime (2m messages per round), measuring slot delivery
//     and send bookkeeping with zero algorithmic work;
//   - flood: a full BFS-style min-ID flood from scratch each iteration —
//     the sparse-wavefront regime, measuring network construction plus rounds
//     where most nodes send nothing. The plain rows build the topology and
//     fresh buffers every iteration; the arena rows share one topology and
//     one arena across iterations, as a multi-phase algorithm does.

// saturatingProgram broadcasts every round and never finishes.
type saturatingProgram struct{}

func (saturatingProgram) Init(ctx *congest.Context) { ctx.Broadcast(congest.Payload{Kind: 1}) }
func (saturatingProgram) Round(ctx *congest.Context, _ []congest.Message) bool {
	ctx.Broadcast(congest.Payload{Kind: 1})
	return false
}

func simBenchGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(int64(n)))
	return graph.RandomKConnected(n, 2, 2*n, rng, graph.UnitWeights())
}

func benchSimulatorBroadcast(b *testing.B, n int) {
	b.Helper()
	b.ReportAllocs()
	g := simBenchGraph(n)
	net := congest.NewNetwork(congest.NewTopology(g), func(int) congest.Program { return saturatingProgram{} }, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

func benchSimulatorFlood(b *testing.B, n int, shared bool) {
	b.Helper()
	b.ReportAllocs()
	g := simBenchGraph(n)
	var topo *congest.Topology
	var arena *congest.NetworkArena
	if shared {
		topo, arena = congest.NewTopology(g), congest.NewArena()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := topo
		if !shared {
			t = congest.NewTopology(g)
		}
		if _, _, err := primitives.ElectLeader(t, arena); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_SimulatorRound(b *testing.B) {
	b.Run("broadcast/n=1k", func(b *testing.B) { benchSimulatorBroadcast(b, 1000) })
	b.Run("broadcast/n=4k", func(b *testing.B) { benchSimulatorBroadcast(b, 4000) })
	b.Run("flood/n=1k", func(b *testing.B) { benchSimulatorFlood(b, 1000, false) })
	b.Run("flood/n=4k", func(b *testing.B) { benchSimulatorFlood(b, 4000, false) })
	b.Run("flood-arena/n=1k", func(b *testing.B) { benchSimulatorFlood(b, 1000, true) })
	b.Run("flood-arena/n=4k", func(b *testing.B) { benchSimulatorFlood(b, 4000, true) })
}

// BenchmarkMicro_DistributedBoruvka is the simulated MST of a sweep-mixed
// 2-ECSS task: the weighted RandomKConnected(2000, 2, 4000) graph, solved
// with one arena reused across iterations, as a pool worker does. Each
// solve builds its topology once and runs four networks per Borůvka phase.
func BenchmarkMicro_DistributedBoruvka(b *testing.B) {
	b.Run("n=2000", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(7))
		g := graph.RandomKConnected(2000, 2, 4000, rng, graph.RandomWeights(rng, 100))
		arena := congest.NewArena()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mst.DistributedBoruvkaArena(g, arena); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMicro_CycleLabels(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomKConnected(512, 2, 512, rng, graph.UnitWeights())
	tr, err := tree.FromBFS(g.BFS(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cycles.ComputeLabels(congest.NewTopology(g), tr, 48, rand.New(rand.NewSource(int64(i))), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_SegmentDecomposition(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomKConnected(2048, 2, 2048, rng, graph.RandomWeights(rng, 100))
	ids, _ := mst.Kruskal(g)
	tr := tree.MustFromEdges(g, ids, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := segments.Decompose(g, tr, segments.DefaultTarget(g.N())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_TAPAugment(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomKConnected(256, 2, 768, rng, graph.RandomWeights(rng, 1000))
	ids, _ := mst.Kruskal(g)
	tr := tree.MustFromEdges(g, ids, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tap.Augment(g, tr, tap.Options{Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_Solve2ECSSEndToEnd(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomKConnected(256, 2, 512, rng, graph.RandomWeights(rng, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve2ECSS(g, WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
