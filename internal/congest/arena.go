package congest

// NetworkArena recycles a Network's per-run message buffers across repeated
// NewNetwork calls: message slots, inbox backing, per-port send stamps,
// out-lists, the sender list and the node contexts. Multi-phase
// algorithms build many short-lived networks over one graph; with an arena
// each construction reuses the previous network's buffers instead of
// re-allocating them. The port index is not here: it lives in the
// read-only Topology, which networks share without any loan.
//
// Ownership rules:
//
//   - At most one live network may borrow an arena's buffers at a time.
//     NewNetwork(t, f, a) borrows them if they are free, and silently falls
//     back to fresh allocation if they are not — so nesting is safe, just
//     not accelerated.
//   - Run returns the buffers when it finishes (success or error). Reading
//     results (Program, Metrics, Graph) stays valid afterwards; calling
//     Step on the finished network panics.
//   - An arena is not safe for concurrent use. Use one arena per goroutine.
//
// The round stamp is carried across networks (see the package
// documentation): recycled stamp buffers never need re-zeroing because a new
// network's starting stamp is strictly greater than every stale stamp.
//
//kecss:arena
type NetworkArena struct {
	slots      []Message
	inboxArena []Message
	sentStamp  []uint32
	outBack    []int32
	senders    []int32
	ctxs       []Context
	inboxes    [][]Message
	stamp      uint32
	busy       bool
}

// NewArena returns an empty arena. Buffers are allocated lazily, sized by
// the largest graph simulated through it.
func NewArena() *NetworkArena { return &NetworkArena{} }

// ArenaOrNew returns a, or a fresh arena if a is nil: the default for a
// function that runs several consecutive networks and wants them to share
// buffers unless its caller supplies an arena.
func ArenaOrNew(a *NetworkArena) *NetworkArena {
	if a == nil {
		return NewArena()
	}
	return a
}

// acquire resizes the arena's buffers for a graph with nv vertices and p2 =
// 2m ports and returns the starting round stamp for the borrowing network.
// Buffers large enough are reused as-is; growing ones are replaced.
func (a *NetworkArena) acquire(nv, p2 int) uint32 {
	if a.stamp >= 1<<31 {
		// Headroom check: restart stamps long before uint32 wraparound so a
		// borrowed network can run billions of rounds safely. The full
		// backing array is cleared — a smaller current view may hide stale
		// stamps that a later, larger acquire would re-expose.
		clear(a.sentStamp[:cap(a.sentStamp)])
		a.stamp = 0
	}
	a.slots = growSlice(a.slots, p2)
	a.inboxArena = growSlice(a.inboxArena, p2)
	a.sentStamp = growSlice(a.sentStamp, p2)
	a.outBack = growSlice(a.outBack, p2)
	a.senders = growSlice(a.senders, nv)
	a.ctxs = growSlice(a.ctxs, nv)
	a.inboxes = growSlice(a.inboxes, nv)
	// Contexts and inbox views hold pointers (to their network, topology
	// and message backing); clear any tail beyond the current graph so a
	// sweep over shrinking graphs does not pin finished networks in memory.
	clear(a.ctxs[nv:cap(a.ctxs)])
	clear(a.inboxes[nv:cap(a.inboxes)])
	return a.stamp + 1
}

// growSlice returns buf resized to length n, reusing its backing array when
// large enough. Contents are unspecified; callers overwrite every element
// they read (sentStamp relies on the arena's monotone stamps instead).
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
