package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
)

// multiplyEdges returns g with every edge duplicated `times` times, which
// multiplies the edge connectivity by `times` (families like Grid or Cycle
// whose λ is pinned at 2 join the size >= 3 corpus this way; the model
// permits multigraphs).
func multiplyEdges(g *graph.Graph, times int) *graph.Graph {
	d := graph.New(g.N())
	for _, e := range g.Edges() {
		for i := 0; i < times; i++ {
			d.AddEdge(e.U, e.V, e.W)
		}
	}
	return d
}

// equivCase is one corpus instance: a generator-family representative whose
// edge connectivity (pinned by `lambda`) lies in the contraction range
// {3,4,5}.
type equivCase struct {
	name   string
	lambda int
	build  func() *graph.Graph
}

func equivCorpus() []equivCase {
	u := graph.UnitWeights()
	return []equivCase{
		{"harary/k=3", 3, func() *graph.Graph { return graph.Harary(3, 14, u) }},
		{"harary/k=4", 4, func() *graph.Graph { return graph.Harary(4, 14, u) }},
		{"harary/k=5", 5, func() *graph.Graph { return graph.Harary(5, 14, u) }},
		{"cycle-x2/k=4", 4, func() *graph.Graph { return multiplyEdges(graph.Cycle(12, u), 2) }},
		{"circulant/k=4", 4, func() *graph.Graph { return graph.Circulant(13, 2, u) }},
		{"randomk/k=4a", 4, func() *graph.Graph {
			return graph.RandomKConnected(14, 3, 6, rand.New(rand.NewSource(11)), u)
		}},
		{"randomk/k=4b", 4, func() *graph.Graph {
			return graph.RandomKConnected(16, 4, 2, rand.New(rand.NewSource(7)), u)
		}},
		{"grid-x2/k=4", 4, func() *graph.Graph { return multiplyEdges(graph.Grid(3, 5, u), 2) }},
		{"cliquechain/k=3", 3, func() *graph.Graph { return graph.CliqueChain(3, 5, 3, u) }},
		{"cliquechain/k=4", 4, func() *graph.Graph { return graph.CliqueChain(3, 6, 4, u) }},
		{"cliquechain/k=5", 5, func() *graph.Graph { return graph.CliqueChain(2, 6, 5, u) }},
		{"geometric/k=3", 3, func() *graph.Graph {
			return graph.RandomGeometric(16, 0.30, 2, rand.New(rand.NewSource(2)))
		}},
		{"geometric/k=5", 5, func() *graph.Graph {
			return graph.RandomGeometric(16, 0.35, 3, rand.New(rand.NewSource(1)))
		}},
		{"chunglu/k=5", 5, func() *graph.Graph {
			return graph.ChungLu(16, 2.5, 6, 3, rand.New(rand.NewSource(1)), u)
		}},
		{"fattree-x2/k=4", 4, func() *graph.Graph { return multiplyEdges(graph.FatTree(4, u), 2) }},
		{"paperfig2-x2/k=4", 4, func() *graph.Graph { return multiplyEdges(graph.PaperFigure2Graph(), 2) }},
	}
}

func cutKeySet(cuts []Cut) map[string]bool {
	m := make(map[string]bool, len(cuts))
	for _, c := range cuts {
		m[c.Key()] = true
	}
	return m
}

// TestEnumerateMinCutsEquivalenceCorpus asserts that the Karger–Stein
// enumerator returns exactly the same cut sets (canonical bipartitions) as
// the flat-Karger reference across all ten generator families at sizes
// 3–5.
func TestEnumerateMinCutsEquivalenceCorpus(t *testing.T) {
	for _, tc := range equivCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			if lam := g.EdgeConnectivity(); lam != tc.lambda {
				t.Fatalf("corpus drift: λ=%d, case pins %d", lam, tc.lambda)
			}
			ref, err := enumerateMinCutsReference(g, tc.lambda, rand.New(rand.NewSource(101)))
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := EnumerateMinCuts(g, tc.lambda, rand.New(rand.NewSource(202)))
			if err != nil {
				t.Fatalf("karger–stein: %v", err)
			}
			refSet, gotSet := cutKeySet(ref), cutKeySet(got)
			if len(ref) != len(refSet) || len(got) != len(gotSet) {
				t.Fatalf("duplicate cuts: ref %d/%d, got %d/%d", len(ref), len(refSet), len(got), len(gotSet))
			}
			if !reflect.DeepEqual(refSet, gotSet) {
				t.Fatalf("cut sets differ: reference %d cuts, karger–stein %d cuts", len(refSet), len(gotSet))
			}
		})
	}
}

// TestEnumerateMinCutsConcurrentDeterministic: enumerations racing over
// the shared arena pool (as concurrent pool sweeps do) must not interfere
// with each other, and each must match a lone run with the same seed. Run
// with -race.
func TestEnumerateMinCutsConcurrentDeterministic(t *testing.T) {
	g := graph.RandomKConnected(48, 4, 10, rand.New(rand.NewSource(5)), graph.UnitWeights())
	size := g.EdgeConnectivity()
	if size < 3 {
		t.Fatalf("instance drift: λ=%d < 3", size)
	}
	want, err := EnumerateMinCuts(g, size, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no cuts found")
	}
	var wg sync.WaitGroup
	results := make([][]Cut, 8)
	errs := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = EnumerateMinCuts(g, size, rand.New(rand.NewSource(9)))
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want, r) {
			t.Fatalf("concurrent enumeration %d differs", i)
		}
	}
}

// TestEnumerateMinCutsKnownConnectivity pins the λ pass-in contract: a
// correct promise reproduces the recomputed result, a too-high promise
// means "no cuts of this size", a contradicted promise errors.
func TestEnumerateMinCutsKnownConnectivity(t *testing.T) {
	g := graph.Harary(4, 14, graph.UnitWeights())
	want, err := EnumerateMinCuts(g, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := EnumerateMinCutsOpts(g, 4, rand.New(rand.NewSource(3)), CutEnumOptions{KnownConnectivity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("KnownConnectivity=λ changed the result")
	}
	none, err := EnumerateMinCutsOpts(g, 3, rand.New(rand.NewSource(3)), CutEnumOptions{KnownConnectivity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Fatalf("KnownConnectivity > size must report no cuts, got %d", len(none))
	}
	if _, err := EnumerateMinCutsOpts(g, 5, rand.New(rand.NewSource(3)), CutEnumOptions{KnownConnectivity: 4}); err == nil {
		t.Fatal("KnownConnectivity < size must error")
	}
	// A promise contradicted by the min degree is caught by the assertion.
	if _, err := EnumerateMinCutsOpts(g, 5, rand.New(rand.NewSource(3)), CutEnumOptions{KnownConnectivity: 5}); err == nil {
		t.Fatal("contradicted KnownConnectivity must error")
	}
}

// TestCutInterner covers dedup, collision-safe equality, and block
// detachment on reset.
func TestCutInterner(t *testing.T) {
	var it cutInterner
	it.reset(130) // 3 words
	a := []uint64{1, 2, 3}
	b := []uint64{1, 2, 4}
	c1, new1 := it.add(a)
	if !new1 {
		t.Fatal("first add not new")
	}
	if _, new2 := it.add(a); new2 {
		t.Fatal("duplicate add reported new")
	}
	if _, new3 := it.add(b); !new3 {
		t.Fatal("distinct add not new")
	}
	// Mutating the input after add must not affect the interned copy.
	a[0] = 77
	if _, isNew := it.add([]uint64{1, 2, 3}); isNew {
		t.Fatal("interned copy was aliased to caller memory")
	}
	old := c1.side
	it.reset(130)
	if _, isNew := it.add([]uint64{1, 2, 3}); !isNew {
		t.Fatal("reset kept old entries")
	}
	if old[0] != 1 || old[1] != 2 || old[2] != 3 {
		t.Fatal("reset clobbered a cut handed out earlier")
	}
}

// TestComponentsSkipping pins the scan against the SubgraphWithout oracle.
func TestComponentsSkipping(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomKConnected(12, 2, 8, rng, graph.UnitWeights())
	comp := make([]int, g.N())
	queue := make([]int, 0, g.N())
	for a := 0; a < g.M(); a++ {
		for b := -1; b < a; b++ {
			skip := map[int]bool{a: true}
			if b >= 0 {
				skip[b] = true
			}
			sub, _ := g.SubgraphWithout(skip)
			wantComp, wantCount := sub.Components()
			gotCount := componentsSkipping(g, comp, queue, a, b)
			if gotCount != wantCount {
				t.Fatalf("skip{%d,%d}: %d components, want %d", a, b, gotCount, wantCount)
			}
			for v := range wantComp {
				if comp[v] != wantComp[v] {
					t.Fatalf("skip{%d,%d}: vertex %d in comp %d, want %d", a, b, v, comp[v], wantComp[v])
				}
			}
		}
	}
}

// TestEnumerateMinCutsTwoVertexMultigraph: the smallest size >= 3 instance
// (two vertices, three parallel edges) exercises the base case without any
// contraction.
func TestEnumerateMinCutsTwoVertexMultigraph(t *testing.T) {
	g := graph.New(2)
	for i := 0; i < 3; i++ {
		g.AddEdge(0, 1, 1)
	}
	cuts, err := EnumerateMinCuts(g, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 || !cuts[0].Crosses(0, 1) {
		t.Fatalf("want the single {0}|{1} cut, got %d cuts", len(cuts))
	}
}

func BenchmarkEquivalenceCorpusKargerStein(b *testing.B) {
	// Convenience: per-corpus-case timing of the new enumerator.
	for _, tc := range equivCorpus() {
		g := tc.build()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EnumerateMinCuts(g, tc.lambda, rand.New(rand.NewSource(int64(i)))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cutSliceDigest folds every cut's bitset words, in slice order, into one
// order-sensitive 64-bit digest (FNV-1a). Byte-identical cut slices produce
// equal digests, and any divergence — content or order — flips it w.h.p.;
// used where the result sets are too large to hold two at once.
func cutSliceDigest(cuts []Cut) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range cuts {
		for _, w := range c.side {
			for s := 0; s < 64; s += 8 {
				h ^= (w >> uint(s)) & 0xff
				h *= prime
			}
		}
	}
	return h
}

// TestEnumerateBaseMatchesRecount pins the gray-code leaf sweep against
// the per-mask recount oracle on multigraph leaves of 2..ksBase
// supernodes, on both the <= 64-edge bitmask path and the > 64-edge
// multiplicity-matrix path. Half the leaves are random multigraphs, whose
// minimum cuts are mostly single supernodes; the other half are rings of
// parallel bundles, where every arc is a minimum cut. Each leaf sits one
// contraction below a level of original vertices, so vertex 0's supernode
// is not always supernode 0 and the materialised bipartitions go through
// composeIDs. size is the leaf's edge connectivity, the only size the
// enumerator is ever asked for.
func TestEnumerateBaseMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := new(cutArena)
	for trial := 0; trial < 400; trial++ {
		nodes := 2 + rng.Intn(ksBase-1)
		matrix := trial%2 == 1
		n := nodes + rng.Intn(10)
		comp := make([]int32, n) // original vertex -> leaf supernode, onto
		for v := range comp {
			comp[v] = int32(v % nodes)
			if v >= nodes {
				comp[v] = int32(rng.Intn(nodes))
			}
		}
		rng.Shuffle(n, func(i, j int) { comp[i], comp[j] = comp[j], comp[i] })
		var edges []ksEdge
		add := func(u, v int) {
			edges = append(edges, ksEdge{u: int32(u), v: int32(v), id: int32(len(edges))})
		}
		if trial%4 >= 2 {
			mult := 1 + rng.Intn(64/nodes)
			if matrix {
				mult = 64/nodes + 1 + rng.Intn(8)
			}
			for i := 0; i < nodes; i++ {
				for j := 0; j < mult; j++ {
					add(i, (i+1)%nodes)
				}
			}
		} else {
			m := nodes - 1 + rng.Intn(66-nodes)
			if matrix {
				m = 65 + rng.Intn(60)
			}
			for i := 0; i < m; i++ {
				if i < nodes-1 {
					add(i, i+1) // a path first keeps the leaf connected
					continue
				}
				u, v := rng.Intn(nodes), rng.Intn(nodes)
				for u == v {
					v = rng.Intn(nodes)
				}
				add(u, v)
			}
		}
		m := len(edges)
		if (m > 64) != matrix {
			t.Fatalf("trial %d: %d edges do not reach the intended leaf path", trial, m)
		}
		size := m
		for mask := 1; mask < 1<<uint(nodes)-1; mask++ {
			crossing := 0
			for _, e := range edges {
				if (mask>>uint(e.u))&1 != (mask>>uint(e.v))&1 {
					crossing++
				}
			}
			size = min(size, crossing)
		}
		run := func(leaf func(depth, size int)) ([]Cut, int64) {
			a.prepare(n, 1, size)
			a.levels[0].nodes = n
			a.levels[0].comp = comp
			leafLv := &a.levels[1]
			leafLv.nodes, leafLv.v0, leafLv.edges = nodes, comp[0], edges
			leaf(1, size)
			out := append([]Cut(nil), a.fresh...)
			sortCuts(out)
			return out, a.steps
		}
		gray, graySteps := run(a.enumerateBase)
		want, wantSteps := run(a.enumerateBaseRecount)
		if len(want) == 0 {
			t.Fatalf("trial %d: oracle found no cut of size λ=%d", trial, size)
		}
		if !reflect.DeepEqual(gray, want) || graySteps != wantSteps {
			t.Fatalf("trial %d (nodes=%d m=%d λ=%d): sweep %d cuts / %d steps, recount %d cuts / %d steps",
				trial, nodes, m, size, len(gray), graySteps, len(want), wantSteps)
		}
	}
}

// TestGrayCodeMatchesRecountLarge runs the capped trial loop on ring-like
// instances at n=4096 — large enough that the contraction tree is ~19
// levels deep and the sweep's incremental crossing counts, sibling-shared
// leaf materialisation, and composed component maps all operate far
// outside the small-n regime the corpus above covers. A capped run may miss
// cuts, so it is checked by digest instead: the same seed must give the
// same cut slice twice, and the slice pinned when the per-mask recount
// still ran beside the sweep on these exact trajectories (leaf-level
// equivalence is TestEnumerateBaseMatchesRecount). The doubled cycle is
// cut-dense (a single capped trial materialises >10^6 bipartitions), so
// runs are compared by order-sensitive digest and released one at a time
// instead of held side by side.
func TestGrayCodeMatchesRecountLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4096 equivalence family; skipped in -short")
	}
	u := graph.UnitWeights()
	for _, tc := range []struct {
		name       string
		g          *graph.Graph
		size       int
		trials     int
		wantCuts   int
		wantDigest uint64
	}{
		{"harary-ring/k=3/n=4096", graph.Harary(3, 4096, u), 3, 2, 3108, 0xb3d297bce7c3852c},
		{"cycle-x2/k=4/n=4096", multiplyEdges(graph.Cycle(4096, u), 2), 4, 1, 1110404, 0x751a1aea652e479e},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (int, uint64) {
				cuts := contractionTrials(tc.g, tc.size, tc.trials, rand.New(rand.NewSource(77)), nil)
				return len(cuts), cutSliceDigest(cuts)
			}
			n1, d1 := run()
			if n1 != tc.wantCuts || d1 != tc.wantDigest {
				t.Fatalf("capped run gave %d cuts / %#x, want %d / %#x", n1, d1, tc.wantCuts, tc.wantDigest)
			}
			if n2, d2 := run(); n2 != n1 || d2 != d1 {
				t.Fatalf("same seed, different output: %d/%#x then %d/%#x", n1, d1, n2, d2)
			}
		})
	}
}
