// Package mst provides minimum-spanning-tree computation: a sequential
// Kruskal oracle and a distributed Borůvka/GHS-style algorithm running on
// the CONGEST simulator.
//
// The paper builds its MSTs with Kutten–Peleg (O(D+√n·log*n) rounds). That
// algorithm's minimum k-dominating-set machinery is out of scope here; the
// distributed Borůvka below is the classic O((D+F)·log n)-round alternative
// that produces the *identical* tree under (weight, edgeID) lexicographic
// tie-breaking, so every structure built on top of the MST (fragments,
// segments, TAP) is exactly the one the paper's pipeline would see. Headline
// round accounting for the theorems charges the Kutten–Peleg bound via
// internal/rounds (see rounds.MSTKuttenPeleg).
//
//kecss:deterministic
package mst

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
)

// Kruskal returns the edge IDs and total weight of the minimum spanning
// tree under (weight, edgeID) lexicographic order. With that tie-break all
// edge weights are effectively distinct, so the MST is unique — this is the
// verification oracle for the distributed algorithm.
func Kruskal(g *graph.Graph) ([]int, int64) {
	uf := graph.NewUnionFind(g.N())
	ids := g.SortedEdgeIDsByWeight()
	out := make([]int, 0, g.N()-1)
	var weight int64
	for _, id := range ids {
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			out = append(out, id)
			weight += e.W
		}
	}
	return out, weight
}

// Result is the outcome of the distributed MST computation.
type Result struct {
	EdgeIDs []int           // MST edge IDs
	Weight  int64           // total MST weight
	Phases  int             // Borůvka phases executed
	Metrics congest.Metrics // accumulated simulator cost
}

// edgeKey orders edges by (weight, ID): the effective distinct-weight order.
type edgeKey struct {
	w  int64
	id int64
}

func (k edgeKey) less(o edgeKey) bool {
	if k.w != o.w {
		return k.w < o.w
	}
	return k.id < o.id
}

var infKey = edgeKey{w: 1 << 62, id: 1 << 62}

// DistributedBoruvka computes the MST by synchronous Borůvka phases where
// every inter-node data movement is performed by message-passing programs on
// the simulator:
//
//  1. each node exchanges its fragment ID with its neighbours (1 round);
//  2. each fragment convergecasts its minimum-weight outgoing edge (MWOE)
//     up its fragment tree and broadcasts the winner back down;
//  3. chosen MWOEs are announced across to the other endpoint;
//  4. merged clusters agree on their new fragment ID (min old ID) by
//     flooding restricted to fragment-tree ∪ MWOE edges, then re-root their
//     fragment tree by a restricted BFS from the new ID's vertex.
//
// Metrics accumulate over all sub-runs. O(log n) phases.
func DistributedBoruvka(g *graph.Graph) (*Result, error) { return DistributedBoruvkaArena(g, nil) }

// DistributedBoruvkaArena is DistributedBoruvka with its simulator buffers
// borrowed from a (see congest.NetworkArena); nil gives the call its own
// arena. Every phase runs four short-lived networks over g: they share one
// congest.Topology, built here once, and the arena's message buffers.
func DistributedBoruvkaArena(g *graph.Graph, a *congest.NetworkArena) (*Result, error) {
	n := g.N()
	if n == 0 {
		return &Result{}, nil
	}
	st := &boruvkaState{
		g:          g,
		topo:       congest.NewTopology(g),
		arena:      congest.ArenaOrNew(a),
		fragID:     make([]int, n),
		parent:     make([]int, n),
		parentEdge: make([]int, n),
		heard:      make([]int64, 2*g.M()),
		cluster:    make([]bool, g.M()),
	}
	for v := 0; v < n; v++ {
		st.fragID[v] = v
		st.parent[v] = -1
		st.parentEdge[v] = -1
	}
	res := &Result{}
	fragments := n
	for fragments > 1 {
		res.Phases++
		if res.Phases > 2*bitLen(n)+2 {
			return nil, fmt.Errorf("mst: Borůvka exceeded %d phases (bug)", res.Phases)
		}
		merged, err := st.phase(&res.Metrics)
		if err != nil {
			return nil, err
		}
		if merged == 0 {
			return nil, fmt.Errorf("mst: no merges with %d fragments left (disconnected graph?)", fragments)
		}
		fragments -= merged
	}
	res.EdgeIDs = append(res.EdgeIDs, st.mstEdges...)
	for _, id := range res.EdgeIDs {
		res.Weight += g.Edge(id).W
	}
	return res, nil
}

func bitLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

// boruvkaState holds the global view the simulation maintains between
// phases: each entry is per-vertex local knowledge (its fragment ID and its
// parent within the fragment tree), mirrored here so successive network runs
// can be parameterized by it. It lives for one DistributedBoruvkaArena call,
// the borrower of the arena it holds.
//
// A fragment's ID is the smallest vertex ID in it, and that vertex is the
// fragment tree's root: true initially (every vertex alone), and kept by
// each phase, which floods the minimum ID over the merged cluster and
// re-roots it there.
//
//kecss:arena-owner
type boruvkaState struct {
	g          *graph.Graph
	topo       *congest.Topology
	arena      *congest.NetworkArena
	fragID     []int
	parent     []int // parent within fragment tree, -1 at fragment root
	parentEdge []int
	mstEdges   []int
	// heard[2e+s] is the fragment ID that edge e's endpoint (s = 0 for U,
	// 1 for V) heard across e in the exchange round; -1 if nothing arrived.
	heard []int64
	// cluster marks the phase's merge edges: fragment-tree edges plus the
	// newly chosen MWOEs.
	cluster []bool
}

// phase runs one Borůvka phase, returns the number of fragment merges.
func (st *boruvkaState) phase(acc *congest.Metrics) (int, error) {
	g := st.g
	n := g.N()

	// Step 1+2: fragment-ID exchange, then MWOE convergecast + broadcast on
	// the fragment forest. best[v] is the MWOE of the fragment rooted at v.
	best, err := st.findMWOEs(acc)
	if err != nil {
		return 0, err
	}

	// Mark the fragment-tree edges, then add each fragment's MWOE in
	// fragment-ID order (roots in vertex order, by the invariant above) so
	// the result's edge order is a pure function of the input
	// (TestDistributedBoruvkaArenaEquivalence pins this). Two fragments may
	// choose the same edge; an MWOE is never a fragment-tree edge, so a set
	// cluster bit means a duplicate.
	clear(st.cluster)
	for v := 0; v < n; v++ {
		if st.parentEdge[v] != -1 {
			st.cluster[st.parentEdge[v]] = true
		}
	}
	chosen := 0
	for v := 0; v < n; v++ {
		if st.parent[v] != -1 || best[v] == infKey {
			continue
		}
		chosen++
		if id := int(best[v].id); !st.cluster[id] {
			st.cluster[id] = true
			st.mstEdges = append(st.mstEdges, id)
		}
	}
	if chosen == 0 {
		return 0, nil
	}
	// Step 3 happens implicitly: both endpoints of a chosen edge learn it
	// in the cluster-flood below because chosen edges are part of the flood
	// edge set that both endpoints are told about. For edge accounting we
	// charge one extra round for the cross-edge announcement.
	acc.Rounds++
	acc.Messages += int64(chosen)
	acc.Bits += int64(chosen) * int64(congest.Payload{}.Bits())

	// Step 4a: clusters (fragment trees + new MWOE edges) agree on min
	// fragment ID by restricted flooding.
	newID, err := minFloodRestricted(st.topo, st.cluster, st.fragID, st.arena, acc)
	if err != nil {
		return 0, err
	}

	// Step 4b: re-root each cluster at the vertex whose ID equals the new
	// cluster ID by a restricted BFS.
	parent, parentEdge, err := bfsRestricted(st.topo, st.cluster, newID, st.arena, acc)
	if err != nil {
		return 0, err
	}

	mergedAway := 0
	for v := 0; v < n; v++ {
		if st.fragID[v] == v {
			mergedAway++
		}
		if newID[v] == v {
			mergedAway--
		}
	}
	st.fragID = newID
	st.parent = parent
	st.parentEdge = parentEdge
	return mergedAway, nil
}

// findMWOEs returns, per fragment root, the fragment's minimum outgoing edge
// key (infKey if none; entries at non-roots are unspecified). It runs two
// network programs: one exchange round so every node learns neighbour
// fragment IDs, then convergecast+broadcast on fragment trees.
func (st *boruvkaState) findMWOEs(acc *congest.Metrics) ([]edgeKey, error) {
	g := st.g
	n := g.N()
	// Exchange round: every node learns the fragment ID across each edge.
	for i := range st.heard {
		st.heard[i] = -1
	}
	exchange := &fragExchangeProgram{st: st}
	net := congest.NewNetwork(st.topo, func(int) congest.Program { return exchange }, st.arena)
	m, err := net.Run(3)
	if err != nil {
		return nil, fmt.Errorf("mst: fragment exchange: %w", err)
	}
	accAdd(acc, m)

	// Local MWOE candidate per node.
	localBest := make([]edgeKey, n)
	for v := 0; v < n; v++ {
		localBest[v] = infKey
		for _, a := range g.Adj(v) {
			e := g.Edge(a.Edge)
			of := st.heard[heardIndex(e, v)]
			if of < 0 {
				return nil, fmt.Errorf("mst: missing fragment id on edge %d at vertex %d", a.Edge, v)
			}
			if int(of) == st.fragID[v] {
				continue
			}
			k := edgeKey{w: e.W, id: int64(a.Edge)}
			if k.less(localBest[v]) {
				localBest[v] = k
			}
		}
	}

	// Convergecast min edgeKey up fragment trees, then broadcast winner.
	progs := make([]mwoeProgram, n)
	for u := 0; u < n; u++ {
		progs[u].parent = st.parent[u]
		progs[u].parentEdge = st.parentEdge[u]
		progs[u].best = localBest[u]
		if st.parent[u] != -1 {
			progs[st.parent[u]].pending++
		}
	}
	net2 := congest.NewNetwork(st.topo, func(v int) congest.Program { return &progs[v] }, st.arena)
	m2, err := net2.Run(n + 3)
	if err != nil {
		return nil, fmt.Errorf("mst: MWOE convergecast: %w", err)
	}
	accAdd(acc, m2)
	for v := 0; v < n; v++ {
		localBest[v] = progs[v].best
	}
	return localBest, nil
}

// heardIndex is the heard slot of edge e at its endpoint v.
func heardIndex(e graph.Edge, v int) int {
	if v == e.V {
		return 2*e.ID + 1
	}
	return 2 * e.ID
}

func accAdd(acc *congest.Metrics, m congest.Metrics) {
	acc.Rounds += m.Rounds
	acc.Messages += m.Messages
	acc.Bits += m.Bits
}

// fragExchangeProgram: every node announces its fragment ID on all edges and
// records what it hears per edge into the shared heard table. It keeps no
// per-node state, so one instance serves every node.
type fragExchangeProgram struct {
	st *boruvkaState
}

func (p *fragExchangeProgram) Init(ctx *congest.Context) {
	ctx.Broadcast(congest.Payload{Kind: 11, A: int64(p.st.fragID[ctx.Node()])})
}

func (p *fragExchangeProgram) Round(_ *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		if m.Kind == 11 {
			p.st.heard[heardIndex(p.st.g.Edge(m.Edge), m.To)] = m.A
		}
	}
	return true
}

// mwoeProgram convergecasts the minimum edgeKey up a fragment tree. A leaf
// (pending == 0) sends immediately; internal nodes wait for all children.
// After the root decides, no broadcast back down is needed by the simulation
// itself (the global driver reads the root's result and the following
// cluster flood informs everyone), but we keep the message count honest by
// having the root's decision flow through the subsequent restricted flood.
type mwoeProgram struct {
	parent     int
	parentEdge int
	pending    int
	best       edgeKey
	sentUp     bool
}

func (p *mwoeProgram) Init(*congest.Context) {}

func (p *mwoeProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		if m.Kind == 12 {
			k := edgeKey{w: m.A, id: m.B}
			if k.less(p.best) {
				p.best = k
			}
			p.pending--
		}
	}
	if p.pending == 0 && !p.sentUp {
		p.sentUp = true
		if p.parent != -1 {
			ctx.Send(p.parentEdge, congest.Payload{Kind: 12, A: p.best.w, B: p.best.id})
		}
	}
	return p.sentUp
}

// minFloodRestricted floods the minimum of start[] over the subgraph whose
// edges are in allowed; returns per-vertex minimum of its connected cluster.
func minFloodRestricted(t *congest.Topology, allowed []bool, start []int, a *congest.NetworkArena, acc *congest.Metrics) ([]int, error) {
	n := t.Graph().N()
	progs := make([]restrictedMinProgram, n)
	net := congest.NewNetwork(t, func(v int) congest.Program {
		progs[v] = restrictedMinProgram{allowed: allowed, best: int64(start[v])}
		return &progs[v]
	}, a)
	m, err := net.Run(2*n + 4)
	if err != nil {
		return nil, fmt.Errorf("mst: cluster min flood: %w", err)
	}
	accAdd(acc, m)
	out := make([]int, n)
	for v := range out {
		out[v] = int(progs[v].best)
	}
	return out, nil
}

type restrictedMinProgram struct {
	allowed   []bool // by edge ID
	best      int64
	announced int64
	started   bool
}

func (p *restrictedMinProgram) Init(*congest.Context) { p.announced = -1 }

func (p *restrictedMinProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	improved := !p.started
	p.started = true
	for _, m := range inbox {
		if m.Kind == 13 && m.A < p.best {
			p.best = m.A
			improved = true
		}
	}
	if improved && p.announced != p.best {
		p.announced = p.best
		for _, nb := range ctx.Neighbors() {
			if p.allowed[nb.Edge] {
				ctx.Send(nb.Edge, congest.Payload{Kind: 13, A: p.best})
			}
		}
		return false
	}
	return true
}

// bfsRestricted runs a BFS restricted to allowed edges, rooted at every
// vertex v with rootID[v] == v, producing per-vertex parent pointers within
// its cluster.
func bfsRestricted(t *congest.Topology, allowed []bool, rootID []int, a *congest.NetworkArena, acc *congest.Metrics) (parent, parentEdge []int, err error) {
	n := t.Graph().N()
	progs := make([]restrictedBFSProgram, n)
	net := congest.NewNetwork(t, func(v int) congest.Program {
		progs[v] = restrictedBFSProgram{allowed: allowed, isRoot: rootID[v] == v}
		return &progs[v]
	}, a)
	m, err := net.Run(2*n + 4)
	if err != nil {
		return nil, nil, fmt.Errorf("mst: cluster BFS: %w", err)
	}
	accAdd(acc, m)
	parent = make([]int, n)
	parentEdge = make([]int, n)
	for v := range parent {
		if !progs[v].joined {
			return nil, nil, fmt.Errorf("mst: vertex %d not reached by cluster BFS", v)
		}
		parent[v] = progs[v].parent
		parentEdge[v] = progs[v].parentEdge
	}
	return parent, parentEdge, nil
}

type restrictedBFSProgram struct {
	allowed    []bool // by edge ID
	isRoot     bool
	joined     bool
	parent     int
	parentEdge int
	sent       bool
}

func (p *restrictedBFSProgram) Init(ctx *congest.Context) {
	p.parent = -1
	p.parentEdge = -1
	if p.isRoot {
		p.joined = true
		p.send(ctx)
	}
}

func (p *restrictedBFSProgram) send(ctx *congest.Context) {
	p.sent = true
	for _, nb := range ctx.Neighbors() {
		if p.allowed[nb.Edge] {
			ctx.Send(nb.Edge, congest.Payload{Kind: 14})
		}
	}
}

func (p *restrictedBFSProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	if !p.joined {
		best := -1
		for i, m := range inbox {
			if m.Kind != 14 || !p.allowed[m.Edge] {
				continue
			}
			if best == -1 || m.Edge < inbox[best].Edge {
				best = i
			}
		}
		if best != -1 {
			p.joined = true
			p.parent = inbox[best].From
			p.parentEdge = inbox[best].Edge
		}
	}
	if p.joined && !p.sent {
		p.send(ctx)
	}
	return p.joined
}
