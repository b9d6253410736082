package cycles

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestCoverIndexMatchesCoverCount pins the index's decomposed cover counts
// against Incremental.CoverCount, bit for bit, across randomized AddEdges
// sequences — including narrow labels, where collisions force the
// same-label pair term and the shared-count term to cancel exactly the way
// the direct per-path histogram does.
func TestCoverIndexMatchesCoverCount(t *testing.T) {
	for _, tc := range []struct {
		n, extra int
		bits     int
		seed     int64
	}{
		{12, 18, 48, 1},
		{24, 40, 48, 2},
		{24, 40, 4, 3}, // 4-bit labels: collisions everywhere
		{40, 60, 2, 4}, // 2-bit labels: heavy collisions, big multi set
		{60, 80, 48, 5},
	} {
		g, base, cands := spanning2EC(tc.n, tc.extra, tc.seed)
		inc, err := NewIncremental(g, base, tc.bits, rand.New(rand.NewSource(tc.seed*31)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cx := NewCoverIndex(inc, cands)
		selected := make([]bool, len(cands))
		check := func(step string) {
			cx.Refresh(func(int, int64) {})
			for i, id := range cands {
				if selected[i] {
					continue
				}
				e := g.Edge(id)
				if got, want := cx.Ce(i), inc.CoverCount(e.U, e.V); got != want {
					t.Fatalf("n=%d bits=%d seed=%d %s: cand %d (edge %d): index %d, engine %d",
						tc.n, tc.bits, tc.seed, step, i, id, got, want)
				}
			}
		}
		check("initial")
		rng := rand.New(rand.NewSource(tc.seed * 97))
		remaining := make([]int, len(cands))
		for i := range remaining {
			remaining[i] = i
		}
		for len(remaining) > 0 {
			k := 1 + rng.Intn(3)
			if k > len(remaining) {
				k = len(remaining)
			}
			batch := make([]int, 0, k)
			for j := 0; j < k; j++ {
				pick := rng.Intn(len(remaining))
				ci := remaining[pick]
				remaining[pick] = remaining[len(remaining)-1]
				remaining = remaining[:len(remaining)-1]
				selected[ci] = true
				cx.Deactivate(ci)
				batch = append(batch, cands[ci])
			}
			inc.AddEdges(batch)
			check("after AddEdges")
			// A reference rescan must leave the index equivalent via reset().
			if len(remaining)%5 == 0 {
				if _, err := inc.RelabelScan(); err != nil {
					t.Fatal(err)
				}
				check("after RelabelScan")
			}
		}
	}
}

// TestCoverIndexDirtySetIsSound verifies the output-sensitivity contract
// from the other side: candidates the index does NOT dirty really cannot
// have changed — after each update and the flush of its deferred weights,
// cached counts (without any recompute of clean candidates) equal the
// engine's direct recomputation. Implied by
// the test above but stated separately so a dirty-tracking regression fails
// with a pointed message.
func TestCoverIndexDirtySetIsSound(t *testing.T) {
	g, base, cands := spanning2EC(30, 50, 11)
	inc, err := NewIncremental(g, base, 48, rand.New(rand.NewSource(13)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cx := NewCoverIndex(inc, cands)
	cx.Refresh(func(int, int64) {})
	for step, ci := range []int{3, 17, 40, 8} {
		cx.Deactivate(ci)
		inc.AddEdges([]int{cands[ci]})
		// Weight updates are deferred to Refresh, so the dirty set is
		// complete only after its flush. Read caches of clean candidates
		// after the flush but BEFORE any recompute: they must already be
		// correct, or the dirty set under-approximated.
		cx.flush()
		for i, id := range cands {
			if i == 3 || i == 17 || i == 40 || i == 8 || cx.dirty[i] {
				continue
			}
			e := g.Edge(id)
			if got, want := cx.Ce(i), inc.CoverCount(e.U, e.V); got != want {
				t.Fatalf("step %d: clean candidate %d stale: cached %d, engine %d", step, i, got, want)
			}
		}
		cx.Refresh(func(int, int64) {})
	}
}

// mergeSpy forwards the engine's label hook to a CoverIndex and counts the
// relabels that moved a tree edge into a label another tree edge already
// carries (a class merge) and were absorbed by pair-count deltas rather
// than the rescan fallback.
type mergeSpy struct {
	*CoverIndex
	mergeDeltas int
}

func (s *mergeSpy) treeRelabeled(t int, old, new uint64) {
	merge := old != new && s.classOf(new) >= 0
	x := s.edgeChild[t]
	covering := s.adjList[s.adjOff[x]:s.adjOff[x+1]]
	spent := func() (sum int) {
		for _, ci := range covering {
			sum += s.spent[ci]
		}
		return sum
	}
	before := spent()
	s.CoverIndex.treeRelabeled(t, old, new)
	if merge && spent() > before {
		s.mergeDeltas++
	}
}

// mobiusHost returns the ring of the weighted Möbius ladder C(n; 1, n/2)
// as the base and its n/2 diameter chords as candidates. The ring's
// labeling tree has height Θ(n) and all its tree edges start in one label
// class, so deltas outgrow the rescan budget.
func mobiusHost(n int) (*graph.Graph, []int, []int) {
	g := graph.New(n)
	base := make([]int, 0, n)
	for i := 0; i < n; i++ {
		base = append(base, g.AddEdge(i, (i+1)%n, 1))
	}
	cands := make([]int, 0, n/2)
	for i := 0; i < n/2; i++ {
		cands = append(cands, g.AddEdge(i, i+n/2, 8))
	}
	return g, base, cands
}

// randomKHost returns a RandomKConnected(n, 3, 2n) host with a
// 2-edge-connected, low-height base in the shape the 3-ECSS solver starts
// from: a BFS tree plus, in random order, each non-tree edge that covers a
// still-uncovered tree edge. Every other edge is a candidate.
func randomKHost(n int, seed int64) (*graph.Graph, []int, []int) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomKConnected(n, 3, 2*n, rng, graph.UnitWeights())
	parent, parentEdge, depth := make([]int, n), make([]int, n), make([]int, n)
	for v := range parent {
		parent[v] = -2
	}
	parent[0], parentEdge[0] = -1, -1
	inBase := make([]bool, g.M())
	queue := []int{0}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range g.Adj(v) {
			if parent[a.To] == -2 {
				parent[a.To], parentEdge[a.To], depth[a.To] = v, a.Edge, depth[v]+1
				inBase[a.Edge] = true
				queue = append(queue, a.To)
			}
		}
	}
	covered := make([]bool, n)
	for _, id := range rng.Perm(g.M()) {
		if inBase[id] {
			continue
		}
		e := g.Edge(id)
		u, v, useful := e.U, e.V, false
		for u != v {
			if depth[u] < depth[v] {
				u, v = v, u
			}
			useful = useful || !covered[u]
			covered[u] = true
			u = parent[u]
		}
		inBase[id] = useful
	}
	var base, cands []int
	for id, in := range inBase {
		if in {
			base = append(base, id)
		} else {
			cands = append(cands, id)
		}
	}
	return g, base, cands
}

// TestCoverIndexBranchesExact drives both ways the index keeps a
// candidate's same-label pair count — the per-relabel delta and the
// over-budget rescan — and class merges under narrow labels, checking after
// every AddEdges+Refresh that Ce(i) == Incremental.CoverCount for every
// live candidate. Each input must actually reach the branch it is there
// for.
func TestCoverIndexBranchesExact(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		host                 func() (*graph.Graph, []int, []int)
		bits                 int
		wantStale, wantMerge bool
	}{
		{"weighted Möbius ring", func() (*graph.Graph, []int, []int) { return mobiusHost(200) }, 48, true, false},
		{"RandomKConnected", func() (*graph.Graph, []int, []int) { return randomKHost(300, 21) }, 48, false, false},
		{"RandomKConnected bits=3", func() (*graph.Graph, []int, []int) { return randomKHost(40, 22) }, 3, false, true},
		{"RandomKConnected bits=4", func() (*graph.Graph, []int, []int) { return randomKHost(60, 23) }, 4, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, base, cands := tc.host()
			inc, err := NewIncremental(g, base, tc.bits, rand.New(rand.NewSource(int64(len(cands)))), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			spy := &mergeSpy{CoverIndex: NewCoverIndex(inc, cands)}
			inc.hook = spy
			cx := spy.CoverIndex
			check := func(step int) {
				cx.Refresh(func(int, int64) {})
				for i, id := range cands {
					if !cx.active[i] {
						continue
					}
					e := g.Edge(id)
					if got, want := cx.Ce(i), inc.CoverCount(e.U, e.V); got != want {
						t.Fatalf("step %d: cand %d (edge %d): index %d, engine %d", step, i, id, got, want)
					}
				}
			}
			check(0)
			sawDelta, sawStale := false, false
			prev := make([]int64, len(cands))
			rng := rand.New(rand.NewSource(int64(len(base))))
			order := rng.Perm(len(cands))
			for step := 1; len(order) > 0; step++ {
				k := min(1+rng.Intn(3), len(order))
				batch := make([]int, 0, k)
				for _, ci := range order[:k] {
					cx.Deactivate(ci)
					batch = append(batch, cands[ci])
				}
				order = order[k:]
				copy(prev, cx.pairs)
				inc.AddEdges(batch)
				for i := range cands {
					if cx.active[i] {
						sawStale = sawStale || cx.stale[i]
						sawDelta = sawDelta || (!cx.stale[i] && cx.pairs[i] != prev[i])
					}
				}
				check(step)
			}
			if !sawDelta {
				t.Error("no candidate's pair count moved by a delta")
			}
			if tc.wantStale && !sawStale {
				t.Error("no candidate went over its rescan budget")
			}
			if tc.wantMerge && spy.mergeDeltas == 0 {
				t.Error("no delta absorbed a relabel into an existing label class")
			}
		})
	}
}

// scriptedSource is a rand.Source64 that returns one fixed value, so a test
// can choose the label AddEdges draws.
type scriptedSource uint64

func (s scriptedSource) Uint64() uint64 { return uint64(s) }
func (s scriptedSource) Int63() int64   { return int64(s >> 1) }
func (scriptedSource) Seed(int64)       {}

// TestCoverIndexLabelSwapDirtiesCandidate pins the one case where only the
// pair delta can dirty a candidate: an activation swaps the labels of two
// path edges, so every n_φ and every Fenwick weight ends where it started,
// while a candidate covering one of the swapped edges loses a same-label
// pair.
//
// Path tree 0-1-2-3-4-5-6 with labels C1, A, A, B, C2, B on its edges.
// Activating {2,4} with label A^B relabels edge 2-3 (A → B) and edge 3-4
// (B → A). The candidate {0,3} covers 0-1, 1-2 and 2-3: its pair {1-2,
// 2-3} splits, and its cover count goes from 0 to 2.
func TestCoverIndexLabelSwapDirtiesCandidate(t *testing.T) {
	const c1, a, b, c2 = 1, 2, 4, 8
	g := graph.New(7)
	base := make([]int, 6)
	for v := 0; v < 6; v++ {
		base[v] = g.AddEdge(v, v+1, 1)
	}
	cand := g.AddEdge(0, 3, 1)
	add := g.AddEdge(2, 4, 1)
	inc, err := NewIncremental(g, base, 48, rand.New(rand.NewSource(1)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, lab := range []uint64{c1, a, a, b, c2, b} {
		inc.phi[base[i]] = lab
	}
	inc.rebuildCounts()
	cx := NewCoverIndex(inc, []int{cand})
	cx.Refresh(func(int, int64) {})
	if got := cx.Ce(0); got != 0 {
		t.Fatalf("before the swap: index %d, want 0", got)
	}
	inc.rng = rand.New(scriptedSource(a ^ b))
	inc.AddEdges([]int{add})
	if inc.Phi(base[2]) != b || inc.Phi(base[3]) != a {
		t.Fatalf("activation did not swap the labels: %d, %d", inc.Phi(base[2]), inc.Phi(base[3]))
	}
	cx.Refresh(func(int, int64) {})
	if got, want := cx.Ce(0), inc.CoverCount(0, 3); got != want || want != 2 {
		t.Fatalf("after the swap: index %d, engine %d, want 2", got, want)
	}
}
