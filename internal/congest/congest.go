// Package congest simulates the synchronous CONGEST model of distributed
// computing used by the paper: n processors, one per graph vertex,
// communicating over the graph edges in synchronous rounds, where each edge
// can carry one O(log n)-bit message in each direction per round.
//
// Algorithms are written as per-node Programs. The simulator enforces the
// model's constraints (bounded message size, one message per edge direction
// per round) and accounts rounds and messages, which is what the paper's
// theorems are about.
//
// # Simulator architecture
//
// The hot path is allocation-free in steady state. Five mechanisms make a
// simulated round cost O(n + messages) machine work with zero heap growth:
//
//   - Port indexing. A node's incident edges are its ports 0..deg-1, in
//     adjacency order. NewTopology builds, once per graph, a global
//     edge→port index (portAtU/portAtV, one int32 per edge endpoint) and,
//     per node, its ports sorted by (neighbour ID, port). Send resolves an
//     edge to a port in O(1); SendTo binary-searches the sorted ports for
//     the lowest-ID free edge to a neighbour. The Topology is read-only, so
//     every Network over the same graph shares it: multi-phase algorithms
//     pay for the index once, not once per network.
//
//   - Round-stamped send state. The model admits at most one message per
//     edge direction per round. Instead of a per-round map of used edges,
//     each port carries a uint32 stamp; a port is "used this round" iff its
//     stamp equals the network's current round stamp, so clearing the send
//     state of the whole network is a single integer increment.
//
//   - Slot delivery. All messages in flight live in a flat []Message of
//     length 2m — slot 2e for the message travelling U→V on edge e, slot
//     2e+1 for V→U. Send writes the message into its slot (each slot has
//     exactly one possible writer per round) and records the slot in the
//     sender's out-list. deliver copies slots into per-node inbox views —
//     fixed-capacity sub-slices of a second flat 2m arena, partitioned by
//     receiver degree — in sender-ID order, so every inbox's order is a
//     function of the graph and the messages alone.
//
//   - Sender list. A node's first send of a round enters it in the round's
//     sender list. Nodes run in vertex order, so the list is ascending;
//     deliver walks only it, so delivery costs O(messages), and "messages
//     in flight" is its delivered count. Step empties each inbox view right
//     after its node's Round has consumed it.
//
//   - Buffer reuse. The per-run buffers (message slots, inbox backing,
//     stamps, out-lists, the sender list, contexts) are carved out of a
//     handful of flat allocations sized by n and m. A NetworkArena recycles
//     them across repeated NewNetwork calls (see arena.go); passing nil
//     gives a network fresh buffers.
//
// Network.Step calls the n per-node Round functions one after another in
// vertex order on the calling goroutine. Host parallelism comes from running
// independent networks concurrently (kecss.Pool runs one solve per worker),
// not from splitting one round across threads; the model's cost is rounds
// and messages, which the schedule of Round calls does not change.
//
//kecss:deterministic
package congest

import "fmt"

// Payload is the content of one CONGEST message: a small constant number of
// O(log n)-bit fields. IDs, weights, counts and labels in the paper all fit
// in O(log n) bits, so a Payload of a few int64 fields is a faithful
// O(log n)-bit message. Kind distinguishes message types within a Program.
type Payload struct {
	Kind       int8
	A, B, C, D int64
}

// Bits returns the nominal size of the payload in bits, for congestion
// accounting: 8 bits of kind plus 64 per field.
func (p Payload) Bits() int { return 8 + 4*64 }

// Message is a payload in transit over one edge in one direction.
type Message struct {
	From int // sender vertex
	To   int // receiver vertex
	Edge int // graph edge ID it travelled on
	Payload
}

// Neighbor describes one incident edge as seen from a node.
type Neighbor struct {
	ID     int   // neighbouring vertex id
	Edge   int   // edge ID
	Weight int64 // edge weight (known to both endpoints initially, per the model)
}

// Context is a node's handle to the network during a round. It is only valid
// during the Init/Round call it was passed to.
type Context struct {
	node      int
	n         int
	net       *Network
	neighbors []Neighbor // port-indexed incident edges (shared topology)
	sentStamp []uint32   // per port: == net.stamp iff used this round
	outSlots  []int32    // slots written this round, in send order
	slotOf    []int32    // per port: its message slot (2*edge + direction)
	byNbr     []int32    // ports sorted by (neighbour ID, port)
}

// Node returns this node's vertex ID.
func (c *Context) Node() int { return c.node }

// N returns the number of vertices in the network. The paper assumes nodes
// know n (learnable in O(D) rounds over a BFS tree).
func (c *Context) N() int { return c.n }

// Neighbors returns the node's incident edges, indexed by port. Callers must
// not mutate it.
func (c *Context) Neighbors() []Neighbor { return c.neighbors }

// Send queues a message on the given incident edge. It panics if the edge is
// not incident to this node or if a second message is sent on the same edge
// in the same round — both violate the CONGEST model and indicate a bug in
// the algorithm, not a runtime condition.
//
//kecss:alloc-free
func (c *Context) Send(edge int, p Payload) {
	t := c.net.topo
	if edge < 0 || edge >= t.m {
		panic(fmt.Sprintf("congest: node %d sending on non-existent edge %d", c.node, edge))
	}
	// The edge is incident iff the port it has at one of its endpoints is,
	// among this node's ports, the one carrying it.
	port := t.portAtU[edge]
	if int(port) >= len(c.neighbors) || c.neighbors[port].Edge != edge {
		port = t.portAtV[edge]
		if int(port) >= len(c.neighbors) || c.neighbors[port].Edge != edge {
			panic(fmt.Sprintf("congest: node %d sending on non-incident edge %d", c.node, edge))
		}
	}
	c.sendPort(port, c.neighbors[port].ID, edge, p)
}

// sendPort performs the actual send on a resolved port: stamps it, writes
// the message into its slot and records the slot in send order. A node's
// first send of the round enters it in the network's sender list.
//
//kecss:alloc-free
func (c *Context) sendPort(port int32, to, edge int, p Payload) {
	net := c.net
	if c.sentStamp[port] == net.stamp {
		panic(fmt.Sprintf("congest: node %d sent two messages on edge %d in one round", c.node, edge))
	}
	c.sentStamp[port] = net.stamp
	if len(c.outSlots) == 0 {
		net.senders = append(net.senders, int32(c.node))
	}
	slot := c.slotOf[port]
	net.slots[slot] = Message{From: c.node, To: to, Edge: edge, Payload: p}
	c.outSlots = append(c.outSlots, slot)
}

// SendTo queues a message to the named neighbour. If several parallel edges
// lead to that neighbour, the lowest-ID unused one is chosen.
func (c *Context) SendTo(neighbor int, p Payload) {
	ports, nbrs := c.byNbr, c.neighbors
	// Binary search for the first port leading to neighbor; its parallel
	// edges follow in ascending port (= edge ID) order.
	lo, hi := 0, len(ports)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[ports[mid]].ID < neighbor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	stamp := c.net.stamp
	for ; lo < len(ports) && nbrs[ports[lo]].ID == neighbor; lo++ {
		if port := ports[lo]; c.sentStamp[port] != stamp {
			nb := &nbrs[port]
			c.sendPort(port, nb.ID, nb.Edge, p)
			return
		}
	}
	panic(fmt.Sprintf("congest: node %d has no free edge to neighbour %d", c.node, neighbor))
}

// Broadcast sends the same payload on every incident edge not yet used this
// round. It is sendPort unrolled over the ports: broadcasting is the
// saturated regime's whole send path, and skipping the per-port call and
// the second stamp check keeps it ~10% cheaper.
//
//kecss:alloc-free
func (c *Context) Broadcast(p Payload) {
	net := c.net
	stamp := net.stamp
	for port := range c.neighbors {
		if c.sentStamp[port] == stamp {
			continue
		}
		c.sentStamp[port] = stamp
		if len(c.outSlots) == 0 {
			net.senders = append(net.senders, int32(c.node))
		}
		nb := &c.neighbors[port]
		slot := c.slotOf[port]
		net.slots[slot] = Message{From: c.node, To: nb.ID, Edge: nb.Edge, Payload: p}
		c.outSlots = append(c.outSlots, slot)
	}
}

// Program is a distributed algorithm as run by a single node. The simulator
// creates one Program instance per vertex via a Factory.
//
// Init runs before round 1 and may send messages (they arrive in round 1).
// Round is called once per round with the messages received; it returns true
// once the node is locally done. A done node still receives messages and has
// Round called (it may un-done itself by returning false), matching the
// standard "termination by quiescence" convention.
type Program interface {
	Init(ctx *Context)
	Round(ctx *Context, inbox []Message) bool
}

// Factory builds the Program for vertex v.
type Factory func(v int) Program
