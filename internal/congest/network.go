package congest

import (
	"fmt"

	"repro/internal/graph"
)

// Metrics accumulates the cost of a simulation: the quantities the paper's
// theorems bound.
type Metrics struct {
	Rounds   int   // synchronous rounds executed
	Messages int64 // messages delivered
	Bits     int64 // total message bits (congestion volume)
}

// Network is one instantiation of the CONGEST model over a communication
// graph, with one Program per vertex. See the package documentation for the
// buffer layout. A Network is the borrower of its arena: it marks the arena
// busy in attachBuffers and returns the buffers in release, so its lifetime
// is exactly one loan.
//
//kecss:arena-owner
type Network struct {
	topo     *Topology
	programs []Program
	ctxs     []Context
	inboxes  [][]Message // per-node views into inboxArena

	// Per-run flat buffers, carved per node by the topology's portStart.
	// All are either freshly allocated or borrowed from a NetworkArena.
	slots      []Message // 2m message slots, indexed 2*edge + direction
	inboxArena []Message // 2m inbox backing, partitioned by receiver degree
	sentStamp  []uint32  // 2m per-port round stamps
	outBack    []int32   // 2m out-slot backing, partitioned by node
	senders    []int32   // nodes that sent this round, ascending

	stamp    uint32 // current round stamp (strictly increasing)
	metrics  Metrics
	arena    *NetworkArena // non-nil if buffers are borrowed
	released bool          // arena buffers returned; stepping is an error
}

// NewNetwork builds a network over t's graph where vertex v runs
// factory(v). a supplies the per-run buffers (see NetworkArena); nil means
// fresh buffers. Init is called for every node (messages sent there arrive
// in round 1). It panics if the graph has gained edges since t was built.
func NewNetwork(t *Topology, factory Factory, a *NetworkArena) *Network {
	t.checkCurrent()
	nv := t.g.N()
	n := &Network{
		topo: t,
		// programs is the one per-network allocation kept off the arena:
		// callers read final program state via Program(v) after Run has
		// returned the buffers, so it must not be recycled under them.
		programs: make([]Program, nv),
	}
	n.attachBuffers(a)
	for v := 0; v < nv; v++ {
		lo, hi := t.portStart[v], t.portStart[v+1]
		n.ctxs[v] = Context{
			node:      v,
			n:         nv,
			net:       n,
			neighbors: t.neighbors[lo:hi:hi],
			sentStamp: n.sentStamp[lo:hi:hi],
			outSlots:  n.outBack[lo:lo:hi],
			slotOf:    t.slotOf[lo:hi:hi],
			byNbr:     t.byNbr[lo:hi:hi],
		}
		n.inboxes[v] = n.inboxArena[lo:lo:hi]
	}
	for v := 0; v < nv; v++ {
		n.programs[v] = factory(v)
	}
	// Init phase: all nodes, sequentially (Init does setup only).
	for v := 0; v < nv; v++ {
		n.programs[v].Init(&n.ctxs[v])
	}
	n.deliver()
	return n
}

// attachBuffers points the network's per-run buffers at freshly allocated
// or arena-recycled memory and fixes the starting round stamp.
func (n *Network) attachBuffers(a *NetworkArena) {
	nv, p2 := n.topo.g.N(), 2*n.topo.m
	if a != nil && !a.busy {
		a.busy = true
		n.arena = a
		n.stamp = a.acquire(nv, p2)
		n.slots, n.inboxArena = a.slots, a.inboxArena
		n.sentStamp, n.outBack = a.sentStamp, a.outBack
		n.senders = a.senders[:0]
		n.ctxs, n.inboxes = a.ctxs, a.inboxes
		return
	}
	n.stamp = 1
	msgs := make([]Message, 2*p2)
	n.slots, n.inboxArena = msgs[:p2:p2], msgs[p2:]
	n.sentStamp = make([]uint32, p2)
	i32 := make([]int32, p2+nv)
	n.outBack, n.senders = i32[:p2:p2], i32[p2:p2]
	n.ctxs = make([]Context, nv)
	n.inboxes = make([][]Message, nv)
}

// deliver moves every slot written this round into its destination inbox, in
// sender-ID then send order (the order a sequential scan of per-node out
// queues would produce), and advances the round stamp, which clears all
// per-port send state in O(1). It walks only the sender list, so it costs
// O(messages), and returns the number of messages delivered. Every inbox is
// empty on entry: Step resets each one after its node's Round.
//
//kecss:alloc-free
func (n *Network) deliver() int64 {
	var delivered int64
	for _, v := range n.senders {
		ctx := &n.ctxs[v]
		for _, s := range ctx.outSlots {
			m := &n.slots[s]
			n.inboxes[m.To] = append(n.inboxes[m.To], *m)
		}
		delivered += int64(len(ctx.outSlots))
		ctx.outSlots = ctx.outSlots[:0]
	}
	n.senders = n.senders[:0]
	n.metrics.Messages += delivered
	n.metrics.Bits += delivered * int64(Payload{}.Bits())
	n.stamp++
	if n.stamp == 0 { // uint32 wraparound after ~4·10⁹ rounds
		// Clear the full backing, not just the current view: arena-borrowed
		// buffers may be larger than 2m, and a stale tail would outlive the
		// restarted counter (same invariant as the arena's headroom reset).
		clear(n.sentStamp[:cap(n.sentStamp)])
		n.stamp = 1
	}
	return delivered
}

// Step executes one synchronous round. It returns true if the network has
// quiesced: every node reported done and no messages are in flight.
//
//kecss:alloc-free
func (n *Network) Step() bool {
	if n.released {
		panic("congest: Step on a network whose arena buffers were released (Run already finished)")
	}
	n.metrics.Rounds++
	allDone := true
	for v, p := range n.programs {
		in := n.inboxes[v]
		if !p.Round(&n.ctxs[v], in) {
			allDone = false
		}
		// The node has consumed its inbox; empty the view for deliver. (The
		// backing stays intact until deliver overwrites it.)
		if len(in) > 0 {
			n.inboxes[v] = in[:0]
		}
	}
	return n.deliver() == 0 && allDone
}

// Run executes rounds until quiescence or maxRounds, returning the metrics.
// It returns an error if the round budget is exhausted, which in this
// repository always indicates a non-terminating algorithm bug or an
// insufficient budget, never a legitimate outcome.
//
// When the network borrowed an arena's buffers, Run returns them before
// returning: final program state (Program), Metrics and Graph remain
// readable, but further Step calls panic.
func (n *Network) Run(maxRounds int) (Metrics, error) {
	defer n.release()
	for r := 0; r < maxRounds; r++ {
		if n.Step() {
			return n.metrics, nil
		}
	}
	return n.metrics, fmt.Errorf("congest: no quiescence within %d rounds", maxRounds)
}

// release returns arena-borrowed buffers. Idempotent; no-op for networks
// with privately owned buffers.
func (n *Network) release() {
	a := n.arena
	if a == nil || n.released {
		return
	}
	n.released = true
	a.stamp = n.stamp
	a.busy = false
}

// Metrics returns the metrics accumulated so far.
func (n *Network) Metrics() Metrics { return n.metrics }

// Program returns the program instance running at vertex v, so callers can
// read its final local state (the standard way a distributed algorithm's
// output is defined: each vertex knows its part). Valid even after Run has
// returned the network's buffers to an arena.
func (n *Network) Program(v int) Program { return n.programs[v] }

// Graph returns the underlying communication graph.
func (n *Network) Graph() *graph.Graph { return n.topo.g }
