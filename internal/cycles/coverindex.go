package cycles

import (
	"repro/internal/tree"
)

// CoverIndex maintains the CoverCount of a fixed candidate-edge set under
// the Incremental engine's label updates, output-sensitively: instead of
// re-walking every candidate's O(height) tree path each iteration, it keeps
// a cached count per candidate and recomputes only the candidates whose
// count can actually have changed since the last Refresh.
//
// It rests on an exact decomposition of Claim 5.8. For a candidate e={u,v}
// with tree path P and per-label active-edge counts n_φ,
//
//	|S²_e| = Σ_L ne_L·(n_L − ne_L)
//	       = Σ_{t∈P} n_φ(t)  −  |P|  −  2·#{{t,t'} ⊆ P : φ(t) = φ(t')}
//
// (ne_L is the number of path edges labeled L; Σ ne_L·n_L telescopes into a
// per-edge sum, and Σ ne_L² = |P| + 2·same-label pairs). The first term is a
// Fenwick path sum over heavy-path-decomposition positions. The last — the
// candidate's same-label pair count — is cached per candidate and kept
// current from the label hook: when tree edge t moves from class old to
// class new, every candidate whose path covers t (the tree-edge→candidate
// adjacency, built once in O(Σ path lengths)) moves by |new ∩ P| −
// |old∖t ∩ P|, each class member tested against the path in O(1) by
// subtree position. So a recompute is O(log² n), and a relabel costs the
// covering candidates × the two class sizes — nothing when both classes
// are singletons, the common case.
//
// Big classes (a Θ(n)-height tree can start as one Θ(n) class) make
// per-relabel deltas dearer than a rescan, so the delta work a candidate
// absorbs between two recomputes is capped at |P| — the cost of one rescan,
// which walks the path and histograms its class slots. A candidate over
// that budget goes stale and its next Refresh rescans it, the same scan
// construction and reset() use. The budget follows the input; either way
// the count is exact.
//
// n_φ changes are deferred: the hook records which labels moved and which
// tree edges were relabeled, and the next Refresh sets each affected tree
// edge's Fenwick weight once, dirtying its candidates only if the weight
// actually moved. A candidate is dirty iff a tree edge on its path changed
// weight or changed its pair count. Everything is exact integer
// arithmetic: Refresh reproduces Incremental.CoverCount bit for bit, which
// the equivalence tests pin.
//
// A CoverIndex attaches to exactly one engine (NewCoverIndex registers the
// hook) and is not safe for concurrent use.
type CoverIndex struct {
	inc *Incremental
	hp  *tree.HPD

	// Candidates, by index: host endpoints, path length, liveness, cached
	// count, cached same-label pair count (valid unless stale), and the
	// delta work spent on it since its last recompute.
	candU, candV []int32
	pathLen      []int
	active       []bool
	ce           []int64
	pairs        []int64
	stale        []bool
	spent        []int

	// Tree-edge→candidate adjacency, CSR over child vertices.
	adjOff  []int32
	adjList []int32

	// Per tree edge (by child vertex): the stored Fenwick weight
	// w[x] = n_φ(φ(parent edge of x)), and the Fenwick tree over HPD
	// positions holding exactly these values.
	w   []int64
	fen []int64

	edgeChild []int32 // host edge ID -> child vertex, -1 for non-tree edges

	// Label classes: the tree edges carrying each label, in recycled slots.
	// classAt[x] and posInClass[x] locate tree edge x for O(1) swap-delete;
	// slotCount is the rescan's per-slot histogram (all zero between scans).
	slotOf     map[uint64]int32
	classes    []labelClass
	freeSlots  []int32
	classAt    []int32
	posInClass []int32
	slotCount  []int32

	// Deferred weight updates since the last Refresh: class slots whose
	// label's n_φ moved (stamped with epoch), and relabeled tree edges.
	epoch   uint32
	queued  []int32
	pending []bool
	pendLst []int32

	dirty     []bool
	dirtyList []int32
}

// labelClass is one label's tree edges (as child vertices).
type labelClass struct {
	edges  []int32
	queued uint32 // epoch in which the slot was last queued for a flush
}

// NewCoverIndex builds the index for the given candidate host edges over
// eng's tree and registers it as the engine's label hook (replacing any
// previous index). Candidates already active in the engine start
// deactivated. All live candidates start dirty, so the first Refresh
// computes every cover count.
func NewCoverIndex(eng *Incremental, candIDs []int) *CoverIndex {
	n := eng.G.N()
	cx := &CoverIndex{
		inc:        eng,
		hp:         tree.NewHPD(eng.Tree),
		candU:      make([]int32, len(candIDs)),
		candV:      make([]int32, len(candIDs)),
		pathLen:    make([]int, len(candIDs)),
		active:     make([]bool, len(candIDs)),
		ce:         make([]int64, len(candIDs)),
		pairs:      make([]int64, len(candIDs)),
		stale:      make([]bool, len(candIDs)),
		spent:      make([]int, len(candIDs)),
		w:          make([]int64, n),
		fen:        make([]int64, n+1),
		edgeChild:  make([]int32, eng.G.M()),
		slotOf:     make(map[uint64]int32, n),
		classAt:    make([]int32, n),
		posInClass: make([]int32, n),
		slotCount:  make([]int32, n),
		epoch:      1,
		pending:    make([]bool, n),
		dirty:      make([]bool, len(candIDs)),
		dirtyList:  make([]int32, 0, len(candIDs)),
	}
	for i := range cx.edgeChild {
		cx.edgeChild[i] = -1
	}
	for v := 0; v < n; v++ {
		if v != eng.Tree.Root {
			cx.edgeChild[eng.Tree.ParentEdge[v]] = int32(v)
		}
	}
	for i, id := range candIDs {
		e := eng.G.Edge(id)
		cx.candU[i], cx.candV[i] = int32(e.U), int32(e.V)
		cx.active[i] = !eng.IsActive(id)
	}
	// Tree-edge→candidate adjacency: count, prefix-sum, fill.
	counts := make([]int32, n)
	cx.eachPathVertex(func(x int32, ci int32) {
		counts[x]++
		cx.pathLen[ci]++
	})
	cx.adjOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		cx.adjOff[v+1] = cx.adjOff[v] + counts[v]
	}
	cx.adjList = make([]int32, cx.adjOff[n])
	fill := make([]int32, n)
	copy(fill, cx.adjOff[:n])
	cx.eachPathVertex(func(x int32, ci int32) {
		cx.adjList[fill[x]] = ci
		fill[x]++
	})
	cx.reset()
	eng.hook = cx
	return cx
}

// eachPathVertex calls fn(childVertex, candidateIndex) for every tree edge
// on every live candidate's path.
func (cx *CoverIndex) eachPathVertex(fn func(x, ci int32)) {
	for i := range cx.candU {
		if !cx.active[i] {
			continue
		}
		ci := int32(i)
		cx.hp.ForEachPathSegment(int(cx.candU[i]), int(cx.candV[i]), func(lo, hi int) {
			for p := lo; p <= hi; p++ {
				fn(int32(cx.hp.VertexAt(p)), ci)
			}
		})
	}
}

// rebuildLabels recomputes the label classes and Fenwick weights from the
// engine's current state, dropping any deferred updates.
func (cx *CoverIndex) rebuildLabels() {
	clear(cx.slotOf)
	cx.classes = cx.classes[:0]
	cx.freeSlots = cx.freeSlots[:0]
	cx.queued = cx.queued[:0]
	for _, x := range cx.pendLst {
		cx.pending[x] = false
	}
	cx.pendLst = cx.pendLst[:0]
	clear(cx.fen)
	tr := cx.inc.Tree
	for v := range cx.w {
		cx.w[v] = 0
		if v == tr.Root {
			continue
		}
		lab := cx.inc.phi[tr.ParentEdge[v]]
		cx.labelAdd(lab, int32(v))
		wv := int64(cx.inc.nphi[lab])
		cx.w[v] = wv
		cx.fenAdd(cx.hp.Pos[v], wv)
	}
}

// classOf returns the slot of lab's class, or -1 if no tree edge carries it.
func (cx *CoverIndex) classOf(lab uint64) int32 {
	if s, ok := cx.slotOf[lab]; ok {
		return s
	}
	return -1
}

// labelAdd appends tree edge x to lab's class, opening a slot for a label
// no tree edge carried.
func (cx *CoverIndex) labelAdd(lab uint64, x int32) {
	s := cx.classOf(lab)
	if s < 0 {
		if k := len(cx.freeSlots); k > 0 {
			s = cx.freeSlots[k-1]
			cx.freeSlots = cx.freeSlots[:k-1]
		} else {
			s = int32(len(cx.classes))
			cx.classes = append(cx.classes, labelClass{})
		}
		cx.slotOf[lab] = s
	}
	c := &cx.classes[s]
	cx.classAt[x] = s
	cx.posInClass[x] = int32(len(c.edges))
	c.edges = append(c.edges, x)
}

// labelRemove removes tree edge x from its class (labeled lab) by
// swap-delete, freeing the slot once the class is empty.
func (cx *CoverIndex) labelRemove(lab uint64, x int32) {
	s := cx.classAt[x]
	c := &cx.classes[s]
	p := cx.posInClass[x]
	last := int32(len(c.edges) - 1)
	c.edges[p] = c.edges[last]
	cx.posInClass[c.edges[p]] = p
	c.edges = c.edges[:last]
	if last == 0 {
		delete(cx.slotOf, lab)
		cx.freeSlots = append(cx.freeSlots, s)
	}
}

// fenAdd adds delta at HPD position p (0-based).
func (cx *CoverIndex) fenAdd(p int, delta int64) {
	for i := p + 1; i < len(cx.fen); i += i & -i {
		cx.fen[i] += delta
	}
}

// fenPrefix returns the sum over positions [0, p] (0-based, inclusive).
func (cx *CoverIndex) fenPrefix(p int) int64 {
	var s int64
	for i := p + 1; i > 0; i -= i & -i {
		s += cx.fen[i]
	}
	return s
}

// markDirty queues candidate ci for the next Refresh.
func (cx *CoverIndex) markDirty(ci int32) {
	if !cx.dirty[ci] {
		cx.dirty[ci] = true
		cx.dirtyList = append(cx.dirtyList, ci)
	}
}

// pend queues tree edge x for a weight update at the next flush.
func (cx *CoverIndex) pend(x int32) {
	if !cx.pending[x] {
		cx.pending[x] = true
		cx.pendLst = append(cx.pendLst, x)
	}
}

// nphiChanged implements labelHook: every tree edge carrying lab now
// stores a stale weight, so queue its class (once per flush) for the next
// Refresh. The flush reads a queued slot's members as they are then; a
// tree edge that left the slot meanwhile was relabeled and is pending on
// its own, so a slot freed and reused within one flush needs no requeue.
func (cx *CoverIndex) nphiChanged(lab uint64, _ int) {
	if s := cx.classOf(lab); s >= 0 && cx.classes[s].queued != cx.epoch {
		cx.classes[s].queued = cx.epoch
		cx.queued = append(cx.queued, s)
	}
}

// treeRelabeled implements labelHook: move the edge between label classes,
// queue its weight update, and shift the pair count of every live candidate
// covering it by |new ∩ P| − |old∖x ∩ P| — or mark the candidate stale
// once that work would exceed one rescan.
func (cx *CoverIndex) treeRelabeled(t int, old, new uint64) {
	if old == new { // a zero label was drawn: nothing moved
		return
	}
	x := cx.edgeChild[t]
	cx.pend(x)
	oldEdges := cx.classes[cx.classAt[x]].edges
	var newEdges []int32
	if s := cx.classOf(new); s >= 0 {
		newEdges = cx.classes[s].edges
	}
	// x is on every covering path, so |old∖x ∩ P| = |old ∩ P| − 1.
	if cost := len(oldEdges) - 1 + len(newEdges); cost > 0 {
		for _, ci := range cx.adjList[cx.adjOff[x]:cx.adjOff[x+1]] {
			if !cx.active[ci] || cx.stale[ci] {
				continue
			}
			if cx.spent[ci]+cost > cx.pathLen[ci] {
				cx.stale[ci] = true
				cx.markDirty(ci)
				continue
			}
			cx.spent[ci] += cost
			u, v := int(cx.candU[ci]), int(cx.candV[ci])
			if d := cx.countOnPath(newEdges, u, v) - cx.countOnPath(oldEdges, u, v) + 1; d != 0 {
				cx.pairs[ci] += d
				cx.markDirty(ci)
			}
		}
	}
	cx.labelRemove(old, x)
	cx.labelAdd(new, x)
}

// reset implements labelHook: the engine recounted wholesale, so rebuild
// the label state and mark every live candidate dirty and stale.
func (cx *CoverIndex) reset() {
	cx.rebuildLabels()
	cx.dirtyList = cx.dirtyList[:0]
	for i, live := range cx.active {
		cx.dirty[i] = live
		cx.stale[i] = live
		if live {
			cx.dirtyList = append(cx.dirtyList, int32(i))
		}
	}
}

// flush applies the deferred weight updates: each tree edge that was
// relabeled or whose label's n_φ moved gets its Fenwick weight set once,
// dirtying its candidates if the weight changed.
func (cx *CoverIndex) flush() {
	for _, s := range cx.queued {
		for _, x := range cx.classes[s].edges {
			cx.pend(x)
		}
	}
	cx.queued = cx.queued[:0]
	cx.epoch++
	tr := cx.inc.Tree
	for _, x := range cx.pendLst {
		cx.pending[x] = false
		val := int64(cx.inc.nphi[cx.inc.phi[tr.ParentEdge[x]]])
		if cx.w[x] == val {
			continue
		}
		cx.fenAdd(cx.hp.Pos[x], val-cx.w[x])
		cx.w[x] = val
		for _, ci := range cx.adjList[cx.adjOff[x]:cx.adjOff[x+1]] {
			if cx.active[ci] {
				cx.markDirty(ci)
			}
		}
	}
	cx.pendLst = cx.pendLst[:0]
}

// countOnPath returns how many of the tree edges xs lie on the u–v path.
func (cx *CoverIndex) countOnPath(xs []int32, u, v int) int64 {
	var k int64
	for _, x := range xs {
		if cx.hp.OnPath(int(x), u, v) {
			k++
		}
	}
	return k
}

// scanPairs counts candidate ci's same-label path pairs from scratch: each
// path edge pairs with the earlier path edges of its class.
func (cx *CoverIndex) scanPairs(ci int32) int64 {
	u, v := int(cx.candU[ci]), int(cx.candV[ci])
	var pairs int64
	cx.hp.ForEachPathSegment(u, v, func(lo, hi int) {
		for p := lo; p <= hi; p++ {
			s := cx.classAt[cx.hp.VertexAt(p)]
			pairs += int64(cx.slotCount[s])
			cx.slotCount[s]++
		}
	})
	cx.hp.ForEachPathSegment(u, v, func(lo, hi int) {
		for p := lo; p <= hi; p++ {
			cx.slotCount[cx.classAt[cx.hp.VertexAt(p)]] = 0
		}
	})
	return pairs
}

// coverCount answers |S²_e| for candidate ci by the decomposition above.
func (cx *CoverIndex) coverCount(ci int32) int64 {
	var sum int64
	cx.hp.ForEachPathSegment(int(cx.candU[ci]), int(cx.candV[ci]), func(lo, hi int) {
		sum += cx.fenPrefix(hi) - cx.fenPrefix(lo-1)
	})
	return sum - int64(cx.pathLen[ci]) - 2*cx.pairs[ci]
}

// Refresh applies the deferred weight updates, recomputes the cover count
// of every dirty live candidate (rescanning the pair count of stale ones),
// calls fn(i, ce) for each, and clears the dirty set. After Refresh, Ce(i)
// equals Incremental.CoverCount for every live candidate.
func (cx *CoverIndex) Refresh(fn func(i int, ce int64)) {
	cx.flush()
	for _, ci := range cx.dirtyList {
		cx.dirty[ci] = false
		if !cx.active[ci] {
			continue
		}
		if cx.stale[ci] {
			cx.pairs[ci] = cx.scanPairs(ci)
			cx.stale[ci] = false
		}
		cx.spent[ci] = 0
		c := cx.coverCount(ci)
		cx.ce[ci] = c
		fn(int(ci), c)
	}
	cx.dirtyList = cx.dirtyList[:0]
}

// Ce returns candidate i's cached cover count (current after a Refresh).
func (cx *CoverIndex) Ce(i int) int64 { return cx.ce[i] }

// Deactivate drops candidate i from all future dirty tracking — called when
// the solver selects it (the edge is about to become active in the engine,
// where a cover count no longer applies).
func (cx *CoverIndex) Deactivate(i int) { cx.active[i] = false }
