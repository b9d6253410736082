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
// max-flow. For c >= 4 it runs the capped max-flow sweep of
// flowConnectivityUpTo. Both draw their scratch from package pools, so warm
// calls — the kecss.Pool validation sweep, the solvers' validate and audit
// checks, the cut enumerator's λ check — allocate nothing. For n <= 1 it
// returns c.
func (g *Graph) EdgeConnectivityUpTo(c int) int {
	if c >= 4 {
		return g.flowConnectivityUpTo(c)
	}
	if g.n <= 1 || c <= 0 {
		return c
	}
	return g.witnessConnectivityUpTo(c)
}

// flowConnectivityUpTo returns min(λ(g), c) by unit-capacity max-flow: it
// fixes s=0 and runs one flow to every other vertex, each capped at the
// best value so far (λ = min over t≠s of maxflow(s,t) because any global
// min cut separates s from some t). The Dinic scratch (arc arrays, levels,
// iterators, BFS queue) is drawn from dinicPool and reloaded in place.
func (g *Graph) flowConnectivityUpTo(c int) int {
	if g.n <= 1 {
		return c
	}
	best := min(c, g.MinDegree())
	d := dinicPool.Get().(*dinic)
	d.reload(g)
	// An unreachable t yields flow 0, so disconnected graphs report 0
	// without a separate connectivity pre-pass.
	for t := 1; t < g.n && best > 0; t++ {
		if f := d.maxFlow(0, t, best); f < best {
			best = f
		}
	}
	dinicPool.Put(d)
	return best
}

// IsKEdgeConnected reports whether g remains connected after removal of any
// k-1 edges.
func (g *Graph) IsKEdgeConnected(k int) bool {
	return k <= 0 || g.EdgeConnectivityUpTo(k) >= k
}

// dinic is a unit-capacity max-flow structure over an undirected graph:
// every undirected edge becomes a pair of directed arcs with capacity 1 each
// (the standard reduction for edge connectivity). Instances are recycled
// through dinicPool and reloaded per graph, so the seven scratch slices are
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
}

var dinicPool = sync.Pool{New: func() any { return new(dinic) }}

// reload rebuilds the arc arrays for g in place, growing the scratch slices
// only when g outsizes every graph this instance has seen before.
func (d *dinic) reload(g *Graph) {
	d.n = g.n
	arcs := 2 * g.M()
	d.head = grow(d.head, g.n)
	d.level = grow(d.level, g.n)
	d.iter = grow(d.iter, g.n)
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

//kecss:alloc-free
func (d *dinic) bfs(s, t int) bool {
	for v := 0; v < d.n; v++ {
		d.level[v] = -1
	}
	d.level[s] = 0
	d.queue = append(d.queue[:0], s)
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

// maxFlow computes the s→t max flow, stopping early once it reaches limit.
//
//kecss:alloc-free
func (d *dinic) maxFlow(s, t, limit int) int {
	d.reset()
	flow := 0
	for flow < limit && d.bfs(s, t) {
		copy(d.iter, d.head)
		for flow < limit && d.dfs(s, t) {
			flow++
		}
	}
	return flow
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
