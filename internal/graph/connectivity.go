package graph

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// bridgeFrame is one stack entry of the iterative Tarjan low-link scan.
type bridgeFrame struct {
	v          int
	parentEdge int
	arcIdx     int
}

// bridgeScanner holds the reusable scratch of the low-link bridge scan, so
// sweeps that scan many times (CutPairs scans once per nontrivial 2-cut
// clique) allocate the disc/low/stack buffers once instead of per scan.
type bridgeScanner struct {
	disc  []int
	low   []int
	stack []bridgeFrame
}

// scan appends to dst the IDs of all bridges of g, ignoring the edge with ID
// skip (pass skip = -1 to scan the whole graph), and returns dst. Output
// order follows the traversal; callers that need sorted output sort it.
func (bs *bridgeScanner) scan(g *Graph, skip int, dst []int) []int {
	bs.disc = grow(bs.disc, g.n)
	bs.low = grow(bs.low, g.n)
	disc, low := bs.disc, bs.low
	for v := 0; v < g.n; v++ {
		disc[v] = -1
	}
	stack := bs.stack[:0]
	timer := 0

	for start := 0; start < g.n; start++ {
		if disc[start] != -1 {
			continue
		}
		disc[start] = timer
		low[start] = timer
		timer++
		stack = append(stack, bridgeFrame{v: start, parentEdge: -1})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.arcIdx < len(g.adj[top.v]) {
				a := g.adj[top.v][top.arcIdx]
				top.arcIdx++
				if a.Edge == top.parentEdge || a.Edge == skip {
					continue
				}
				if disc[a.To] == -1 {
					disc[a.To] = timer
					low[a.To] = timer
					timer++
					stack = append(stack, bridgeFrame{v: a.To, parentEdge: a.Edge})
				} else if disc[a.To] < low[top.v] {
					low[top.v] = disc[a.To]
				}
			} else {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					parent := &stack[len(stack)-1]
					if low[top.v] < low[parent.v] {
						low[parent.v] = low[top.v]
					}
					if low[top.v] > disc[parent.v] {
						dst = append(dst, top.parentEdge)
					}
				}
			}
		}
	}
	bs.stack = stack[:0]
	return dst
}

// Bridges returns the IDs of all bridge edges (cuts of size 1) using an
// iterative Tarjan low-link computation. For a multigraph, a parallel pair is
// never a bridge: the low-link traversal tracks the specific parent edge ID
// rather than the parent vertex, which handles parallel edges correctly.
func (g *Graph) Bridges() []int {
	var bs bridgeScanner
	bridges := bs.scan(g, -1, nil)
	sort.Ints(bridges)
	return bridges
}

// TwoEdgeConnected reports whether g is connected and has no bridges, i.e.
// whether g remains connected after the removal of any single edge.
func (g *Graph) TwoEdgeConnected() bool {
	return g.IsKEdgeConnected(2)
}

// CutPair is an unordered pair of edge IDs whose joint removal disconnects a
// 2-edge-connected graph. By convention A < B.
type CutPair struct {
	A, B int
}

// mix64 is the splitmix64 finalizer, used to fingerprint covering-edge sets
// so that distinct sets collide with probability ~2^-64 per component.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cover fingerprints a set of non-tree edges: its size, the xor of its edge
// IDs, and the sum of their mix64 hashes. Equal sets always have equal
// fingerprints; a one-element set is determined exactly by (cnt, xr).
type cover struct {
	cnt int
	xr  uint64
	hs  uint64
}

// keyedCover is a tree edge with the fingerprint of its covering set.
type keyedCover struct {
	cover
	edge int
}

// coverScan is the scratch of the cover-fingerprint pass shared by CutPairs
// and the λ ≤ 3 witness search. Instances are recycled through
// coverScanPool, so warm passes allocate nothing.
type coverScan struct {
	disc       []int
	parentEdge []int // tree edge to the DFS parent, -1 at roots
	order      []int // DFS preorder: parents precede children
	isTree     []bool
	covers     []cover // covers[x] describes tree edge parentEdge[x]
	stack      []bridgeFrame
	keyed      []keyedCover
	bs         bridgeScanner
	partners   []int
}

var coverScanPool = sync.Pool{New: func() any { return new(coverScan) }}

// fingerprint builds a DFS spanning forest of g and, for every tree edge,
// the fingerprint of the set of non-tree edges covering it (the edges whose
// fundamental cycle contains it), in O(n + m) total. It returns the number
// of DFS trees, which is 1 exactly when g is connected (and n >= 1).
//
// The fingerprints come from subtree aggregation: a non-tree edge (d, a)
// with d the deeper endpoint contributes (+1 at d, −1 at a) to the count
// (in a DFS forest every non-tree edge joins an ancestor a to a descendant
// d, and a is never in a subtree without d, so the subtree sum at a tree
// edge's child vertex counts exactly the covering edges), its ID to an xor
// at both endpoints (fully-contained edges cancel), and a mixed hash with
// opposite signs (same cancellation). Self-loops cover nothing.
func (cs *coverScan) fingerprint(g *Graph) int {
	n, m := g.n, len(g.edges)
	cs.disc = grow(cs.disc, n)
	cs.parentEdge = grow(cs.parentEdge, n)
	cs.covers = grow(cs.covers, n)
	cs.isTree = grow(cs.isTree, m)
	disc, parentEdge, covers, isTree := cs.disc, cs.parentEdge, cs.covers, cs.isTree
	for v := range disc {
		disc[v] = -1
		parentEdge[v] = -1
		covers[v] = cover{}
	}
	clear(isTree)
	order, stack := cs.order[:0], cs.stack[:0]
	trees, timer := 0, 0
	for start := 0; start < n; start++ {
		if disc[start] != -1 {
			continue
		}
		trees++
		disc[start] = timer
		timer++
		order = append(order, start)
		stack = append(stack, bridgeFrame{v: start, parentEdge: -1})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.arcIdx < len(g.adj[top.v]) {
				a := g.adj[top.v][top.arcIdx]
				top.arcIdx++
				if a.Edge == top.parentEdge || disc[a.To] != -1 {
					continue
				}
				disc[a.To] = timer
				timer++
				parentEdge[a.To] = a.Edge
				isTree[a.Edge] = true
				order = append(order, a.To)
				stack = append(stack, bridgeFrame{v: a.To, parentEdge: a.Edge})
			} else {
				stack = stack[:len(stack)-1]
			}
		}
	}
	cs.order, cs.stack = order, stack

	for _, e := range g.edges {
		if isTree[e.ID] || e.U == e.V {
			continue
		}
		d, a := e.U, e.V
		if disc[d] < disc[a] {
			d, a = a, d
		}
		h := mix64(uint64(e.ID))
		covers[d].cnt++
		covers[a].cnt--
		covers[d].xr ^= uint64(e.ID)
		covers[a].xr ^= uint64(e.ID)
		covers[d].hs += h
		covers[a].hs -= h
	}
	for i := len(order) - 1; i >= 0; i-- {
		x := order[i]
		pe := parentEdge[x]
		if pe == -1 {
			continue
		}
		p := g.edges[pe].Other(x)
		covers[p].cnt += covers[x].cnt
		covers[p].xr ^= covers[x].xr
		covers[p].hs += covers[x].hs
	}
	return trees
}

// CutPairs enumerates every cut pair of g with one cover-fingerprint pass
// (coverScan.fingerprint) plus one bridge scan per nontrivial 2-cut class:
// an output-sensitive O(n + m + classes·(n+m)) sweep.
//
// The structure it exploits: fix any DFS spanning tree. A pair of two
// non-tree edges never disconnects (the tree survives), so every cut pair
// contains a tree edge t, and the cut it realises is t's fundamental cut —
// hence the partner is either (a) the unique non-tree edge covering t, when
// exactly one does, or (b) another tree edge covered by exactly the same
// set of non-tree edges. "Same covering set" is an equivalence relation, so
// case (b) groups tree edges into cliques. Count-1 edges read their partner
// straight out of the fingerprint's xor. Fingerprint groups of count ≥ 2
// and size ≥ 2 are then resolved exactly — never trusting the hash — by
// scanning bridges of G−t for one representative t per clique: those
// bridges are, by definition, the exact partner set of t, and resolve the
// whole clique at once. Equal covering sets always produce equal
// fingerprints, so no pair is ever missed; a hash collision merely costs
// one extra verification scan.
//
// The graph must be 2-edge-connected (so that every size-2 cut is a pair of
// edges, each individually removable without disconnecting). The output
// has Θ(n²) pairs on a long cycle; to decide whether any cut pair exists,
// use EdgeConnectivityUpTo(3), which stops at the first witness.
func (g *Graph) CutPairs() []CutPair {
	if g.n == 0 || len(g.edges) == 0 {
		return nil
	}
	cs := coverScanPool.Get().(*coverScan)
	defer coverScanPool.Put(cs)
	cs.fingerprint(g)

	var pairs []CutPair
	addPair := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, CutPair{A: a, B: b})
	}
	emitClique := func(class []int) {
		for i := 0; i < len(class); i++ {
			for j := i + 1; j < len(class); j++ {
				addPair(class[i], class[j])
			}
		}
	}
	groups := make(map[cover][]int)
	for _, x := range cs.order {
		pe, c := cs.parentEdge[x], cs.covers[x]
		if pe == -1 || c.cnt < 1 {
			continue
		}
		if c.cnt == 1 {
			// Exactly one covering non-tree edge: the xor IS its ID.
			addPair(pe, int(c.xr))
		}
		groups[c] = append(groups[c], pe)
	}
	var resolved map[int]bool
	// The emitted pair set is iteration-order independent: a scan resolves
	// a whole equivalence class whichever member is scanned first, and the
	// pairs are sorted before return.
	//kecss:nondeterministic-ok pair set is order-independent and sorted below
	for c, members := range groups {
		if len(members) < 2 {
			continue
		}
		if c.cnt == 1 {
			// A one-element covering set is determined exactly by (cnt, xor):
			// the whole group genuinely shares the set, no scan needed.
			emitClique(members)
			continue
		}
		// cnt >= 2: verify each clique with one scan of a representative.
		// Bridges of G−t are the exact partners of t, so one scan settles t's
		// entire equivalence class; hash-merged strangers stay unresolved and
		// get their own scan.
		if resolved == nil {
			resolved = make(map[int]bool)
		}
		for _, t := range members {
			if resolved[t] {
				continue
			}
			resolved[t] = true
			cs.partners = cs.bs.scan(g, t, cs.partners[:0])
			if len(cs.partners) == 0 {
				continue
			}
			class := make([]int, 0, len(cs.partners)+1)
			class = append(class, t)
			class = append(class, cs.partners...)
			for _, p := range class {
				resolved[p] = true
			}
			emitClique(class)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs
}

// witnessConnectivityUpTo returns min(λ(g), c) for 1 <= c <= 3 on a graph
// with n >= 2, without max-flow: it searches the cover fingerprints for the
// first witness that λ < c and stops there. The witnesses follow the
// CutPairs characterisation: more than one DFS tree (λ = 0), a tree edge
// covered by nothing (a bridge, λ = 1), a tree edge covered by exactly one
// non-tree edge (a cut pair, λ = 2), or two tree edges with the same
// covering set (a cut pair, λ = 2). Equal sets have equal fingerprints, so
// the last kind lies inside one run of equal fingerprints after sorting;
// there an exact bridge scan of G−t decides, for each run member t but the
// last (a partner of the last would be a member whose own scan found it).
// The hash only groups tree edges and never decides the answer: a
// collision costs one empty scan. O(n + m) plus a sort of n−1 fingerprints.
func (g *Graph) witnessConnectivityUpTo(c int) int {
	cs := coverScanPool.Get().(*coverScan)
	defer coverScanPool.Put(cs)
	if cs.fingerprint(g) > 1 {
		return 0
	}
	minCnt := len(g.edges)
	keyed := cs.keyed[:0]
	for _, x := range cs.order {
		if pe := cs.parentEdge[x]; pe != -1 {
			minCnt = min(minCnt, cs.covers[x].cnt)
			keyed = append(keyed, keyedCover{cs.covers[x], pe})
		}
	}
	cs.keyed = keyed
	switch {
	case minCnt == 0:
		return 1
	case c <= 2 || minCnt == 1:
		return min(2, c)
	}
	slices.SortFunc(keyed, func(a, b keyedCover) int {
		return cmp.Or(cmp.Compare(a.cnt, b.cnt), cmp.Compare(a.xr, b.xr), cmp.Compare(a.hs, b.hs))
	})
	for i := 0; i < len(keyed); {
		j := i + 1
		for j < len(keyed) && keyed[j].cover == keyed[i].cover {
			j++
		}
		for _, k := range keyed[i : j-1] {
			if cs.partners = cs.bs.scan(g, k.edge, cs.partners[:0]); len(cs.partners) > 0 {
				return 2
			}
		}
		i = j
	}
	return c
}

// EdgeConnectivity returns the global edge connectivity λ(g): the minimum
// number of edges whose removal disconnects g. It is 0 for a disconnected
// graph. A graph with at most one vertex cannot be disconnected; there it
// returns M()+1.
func (g *Graph) EdgeConnectivity() int {
	return g.EdgeConnectivityUpTo(g.M() + 1)
}

// EdgeConnectivityUpTo returns min(λ(g), c). For c <= 3 it is the exact
// witness search of witnessConnectivityUpTo: O(n + m) plus a sort, no
// max-flow. For c >= 4 it runs the capped max-flow sweep of ForEachMinCut
// with no cut enumeration. Both draw their scratch from package pools, so
// warm calls — the kecss.Pool validation sweep and the solvers' validate
// and audit checks — allocate nothing. For n <= 1 it returns c.
func (g *Graph) EdgeConnectivityUpTo(c int) int {
	if c >= 4 {
		return g.ForEachMinCut(c-1, nil)
	}
	if g.n <= 1 || c <= 0 {
		return c
	}
	return g.witnessConnectivityUpTo(c)
}

// ForEachMinCut returns min(λ(g), size+1) and, when λ(g) == size, calls
// emit exactly once for every minimum cut of g, passing the cut's side
// without vertex 0 as a bitset over the vertices (bit v%64 of word v/64).
// The bitset is scratch that the next call overwrites: emit copies what it
// keeps. When λ(g) < size the return value says so and the sets emitted
// before the sweep found a smaller flow are not minimum cuts; callers
// discard them. emit may be nil, which makes this a connectivity check.
// For n <= 1 it returns size+1 and emits nothing.
//
// The enumeration is exact and deterministic. It runs n−1 unit-capacity
// max-flows, one per sink t = 1..n−1 from the source set {0..t−1}, each
// capped at size+1: every cut separates vertex 0 from a smallest vertex t
// on its far side, so λ is the least of these flows. Where a flow equals
// size, the minimum {0..t−1}–t cuts are exactly the sets closed under the
// residual arcs that hold the sources and not t (Picard–Queyranne 1980),
// and dinic.closedSets lists each one. A cut is emitted only at the t that
// is the smallest vertex of its far side, so never twice. The cost is
// O(n·size·m) for the flows plus O(n + m) per emitted cut. The scratch
// comes from dinicPool, so a warm sweep allocates only what emit does.
func (g *Graph) ForEachMinCut(size int, emit func(sinkSide []uint64)) int {
	if g.n <= 1 {
		return size + 1
	}
	d := dinicPool.Get().(*dinic)
	d.reload(g)
	lam := d.sweep(min(size+1, g.MinDegree()), size, emit)
	dinicPool.Put(d)
	return lam
}

// IsKEdgeConnected reports whether g remains connected after removal of any
// k-1 edges.
func (g *Graph) IsKEdgeConnected(k int) bool {
	return k <= 0 || g.EdgeConnectivityUpTo(k) >= k
}

// dinic is a unit-capacity max-flow structure over an undirected graph:
// every undirected edge becomes a pair of directed arcs with capacity 1 each
// (the standard reduction for edge connectivity). Instances are recycled
// through dinicPool and reloaded per graph, so the scratch slices are
// allocated once per pooled instance, not once per connectivity query.
type dinic struct {
	n     int
	head  []int
	next  []int
	to    []int
	cap   []int8
	level []int
	iter  []int
	queue []int
	// Closed-set enumeration scratch (closedSets): the side each vertex is
	// decided on, the undo trail of decided vertices, and the sink side as
	// the bitset handed to emit.
	side     []int8
	trail    []int
	sinkSide []uint64
}

// Sides of a vertex during closed-set enumeration.
const (
	undecided int8 = iota
	onSource
	onSink
)

var dinicPool = sync.Pool{New: func() any { return new(dinic) }}

// reload rebuilds the arc arrays for g in place, growing the scratch slices
// only when g outsizes every graph this instance has seen before.
func (d *dinic) reload(g *Graph) {
	d.n = g.n
	arcs := 2 * g.M()
	d.head = grow(d.head, g.n)
	d.level = grow(d.level, g.n)
	d.iter = grow(d.iter, g.n)
	d.side = grow(d.side, g.n)
	d.sinkSide = grow(d.sinkSide, (g.n+63)/64)
	d.next = grow(d.next, arcs)
	d.to = grow(d.to, arcs)
	d.cap = grow(d.cap, arcs)
	for v := 0; v < g.n; v++ {
		d.head[v] = -1
	}
	a := 0
	addArc := func(u, v int) {
		d.to[a] = v
		d.next[a] = d.head[u]
		d.head[u] = a
		a++
	}
	for _, e := range g.Edges() {
		// Undirected unit edge: arc and reverse arc both have capacity 1.
		addArc(e.U, e.V)
		addArc(e.V, e.U)
	}
}

// grow returns s resized to n, reusing its backing array when possible.
// The contents are unspecified; callers initialise what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sweep runs the max-flow from {0..t−1} to t for t = 1..n−1 and returns
// min(λ, best), where best <= size+1 is an upper bound on what the caller
// needs to know. Each flow is capped at the least value seen so far, except
// that while that value is size the cap stays size+1, so a flow of size is
// known to be maximum; closedSets then enumerates its minimum cuts into
// emit (when non-nil).
//
//kecss:alloc-free
func (d *dinic) sweep(best, size int, emit func([]uint64)) int {
	for t := 1; t < d.n && best > 0; t++ {
		limit := best
		if emit != nil && best == size {
			limit = size + 1
		}
		f := d.maxFlow(t, limit)
		best = min(best, f)
		if emit != nil && f == size {
			d.closedSets(t, emit)
		}
	}
	return best
}

// reset restores all capacities to 1 (valid because the undirected reduction
// starts every arc at capacity 1).
//
//kecss:alloc-free
func (d *dinic) reset() {
	for i := range d.cap {
		d.cap[i] = 1
	}
	// Note: arcs are stored in (arc, reverse) pairs at indices (2i, 2i+1)...
	// for the undirected case both start at 1, so a flat reset is correct.
}

// bfs levels the residual graph from the sources 0..t−1 and reports
// whether t is reachable.
//
//kecss:alloc-free
func (d *dinic) bfs(t int) bool {
	d.queue = d.queue[:0]
	for v := 0; v < d.n; v++ {
		d.level[v] = -1
		if v < t {
			d.level[v] = 0
			d.queue = append(d.queue, v)
		}
	}
	for qi := 0; qi < len(d.queue); qi++ {
		v := d.queue[qi]
		for a := d.head[v]; a != -1; a = d.next[a] {
			if d.cap[a] > 0 && d.level[d.to[a]] == -1 {
				d.level[d.to[a]] = d.level[v] + 1
				d.queue = append(d.queue, d.to[a])
			}
		}
	}
	return d.level[t] != -1
}

//kecss:alloc-free
func (d *dinic) dfs(v, t int) bool {
	if v == t {
		return true
	}
	for ; d.iter[v] != -1; d.iter[v] = d.next[d.iter[v]] {
		a := d.iter[v]
		u := d.to[a]
		if d.cap[a] > 0 && d.level[u] == d.level[v]+1 && d.dfs(u, t) {
			d.cap[a]--
			d.cap[a^1]++
			return true
		}
	}
	return false
}

// maxFlow computes the max flow from the sources 0..t−1 to t, stopping
// early once it reaches limit. Sources all sit at level 0, so no augmenting
// path passes through a second source and no super-source arcs are needed.
//
//kecss:alloc-free
func (d *dinic) maxFlow(t, limit int) int {
	d.reset()
	flow := 0
	for flow < limit && d.bfs(t) {
		copy(d.iter, d.head)
		for s := 0; s < t && flow < limit; s++ {
			for flow < limit && d.dfs(s, t) {
				flow++
			}
		}
	}
	return flow
}

// closedSets calls emit with the sink side of every set X closed under the
// residual arcs with {0..t−1} ⊆ X and t ∉ X, after a maximum flow from
// those sources to t. It starts from the residual closure of the sources
// and the reverse closure of t, then branches on the first undecided vertex
// v: v joins the source side with its closure, or the sink side with its
// reverse closure. Neither branch can reach the other side (v would
// otherwise already be decided), so every leaf is a distinct closed set and
// the work is O(n + m) per emitted set.
//
//kecss:alloc-free
func (d *dinic) closedSets(t int, emit func([]uint64)) {
	clear(d.side)
	clear(d.sinkSide)
	d.trail = d.trail[:0]
	for s := 0; s < t; s++ {
		d.decide(s, onSource)
	}
	d.close(0, onSource)
	top := len(d.trail)
	d.decide(t, onSink)
	d.close(top, onSink)
	d.branch(t+1, emit)
}

// branch enumerates the closed sets that extend the current decisions,
// with every vertex below v already decided.
//
//kecss:alloc-free
func (d *dinic) branch(v int, emit func([]uint64)) {
	for v < d.n && d.side[v] != undecided {
		v++
	}
	if v == d.n {
		emit(d.sinkSide)
		return
	}
	for _, s := range [2]int8{onSource, onSink} {
		top := len(d.trail)
		d.decide(v, s)
		d.close(top, s)
		d.branch(v+1, emit)
		d.undo(top)
	}
}

// decide puts v on side s and records it on the trail.
//
//kecss:alloc-free
func (d *dinic) decide(v int, s int8) {
	d.side[v] = s
	if s == onSink {
		d.sinkSide[v/64] |= 1 << uint(v%64)
	}
	d.trail = append(d.trail, v)
}

// close extends the vertices decided since trail position top to their
// closure: along residual arcs for the source side, against them for the
// sink side.
//
//kecss:alloc-free
func (d *dinic) close(top int, s int8) {
	for i := top; i < len(d.trail); i++ {
		u := d.trail[i]
		for a := d.head[u]; a != -1; a = d.next[a] {
			w := d.to[a]
			if d.side[w] != undecided {
				continue
			}
			// The source side follows u→w; the sink side follows w→u,
			// which is arc a's reverse.
			if (s == onSource && d.cap[a] > 0) || (s == onSink && d.cap[a^1] > 0) {
				d.decide(w, s)
			}
		}
	}
}

// undo reverts every decision made since trail position top.
//
//kecss:alloc-free
func (d *dinic) undo(top int) {
	for _, v := range d.trail[top:] {
		d.side[v] = undecided
		d.sinkSide[v/64] &^= 1 << uint(v%64)
	}
	d.trail = d.trail[:top]
}

// GlobalMinCutWeight returns the weight of a global minimum weight edge cut
// using the Stoer–Wagner algorithm in O(n³). Used as an oracle in tests.
// The graph must be connected and have at least 2 vertices.
func (g *Graph) GlobalMinCutWeight() int64 {
	n := g.n
	if n < 2 {
		panic("graph: GlobalMinCutWeight needs at least 2 vertices")
	}
	// Dense weight matrix; parallel edges accumulate.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for _, e := range g.edges {
		w[e.U][e.V] += e.W
		w[e.V][e.U] += e.W
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	const inf = int64(1) << 62
	best := inf
	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase).
		inA := make([]bool, n)
		weightTo := make([]int64, n)
		var prev, last int
		for i := 0; i < len(active); i++ {
			sel := -1
			for _, v := range active {
				if !inA[v] && (sel == -1 || weightTo[v] > weightTo[sel]) {
					sel = v
				}
			}
			inA[sel] = true
			if i == len(active)-1 {
				if weightTo[sel] < best {
					best = weightTo[sel]
				}
				// Merge last into prev.
				last = sel
				for _, v := range active {
					if v != last && v != prev {
						w[prev][v] += w[last][v]
						w[v][prev] = w[prev][v]
					}
				}
				// Remove last from active.
				out := active[:0]
				for _, v := range active {
					if v != last {
						out = append(out, v)
					}
				}
				active = out
				break
			}
			prev = sel
			for _, v := range active {
				if !inA[v] {
					weightTo[v] += w[sel][v]
				}
			}
		}
	}
	return best
}
