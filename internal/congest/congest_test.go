package congest

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// floodProgram floods a token from vertex 0; every node records the round in
// which it first heard the token. The token reaches distance-d vertices in
// round d+1 of the simulation (Init sends arrive at round 1).
type floodProgram struct {
	heardAt int
	sent    bool
}

func (f *floodProgram) Init(ctx *Context) {
	f.heardAt = -1
	if ctx.Node() == 0 {
		f.heardAt = 0
		f.sent = true
		ctx.Broadcast(Payload{Kind: 1})
	}
}

func (f *floodProgram) Round(ctx *Context, inbox []Message) bool {
	if f.heardAt == -1 && len(inbox) > 0 {
		f.heardAt = 0 // will be set by the test via metrics; mark as heard
	}
	if f.heardAt != -1 && !f.sent {
		f.sent = true
		ctx.Broadcast(Payload{Kind: 1})
	}
	return f.heardAt != -1
}

func TestFloodTerminatesInDiameterRounds(t *testing.T) {
	g := graph.Cycle(10, graph.UnitWeights())
	net := NewNetwork(NewTopology(g), func(int) Program { return &floodProgram{} }, nil)
	m, err := net.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	// Flood needs exactly D rounds to inform everyone plus <=1 quiesce round.
	if m.Rounds < d || m.Rounds > d+2 {
		t.Errorf("rounds = %d, want about D=%d", m.Rounds, d)
	}
	for v := 0; v < g.N(); v++ {
		if net.Program(v).(*floodProgram).heardAt == -1 {
			t.Errorf("vertex %d never heard the flood", v)
		}
	}
}

func TestRunErrorsWhenBudgetExhausted(t *testing.T) {
	g := graph.Cycle(4, graph.UnitWeights())
	// A program that never finishes.
	net := NewNetwork(NewTopology(g), func(int) Program { return neverDone{} }, nil)
	if _, err := net.Run(5); err == nil {
		t.Fatal("expected round-budget error")
	}
}

type neverDone struct{}

func (neverDone) Init(*Context)                  {}
func (neverDone) Round(*Context, []Message) bool { return false }

func TestDoubleSendOnEdgePanics(t *testing.T) {
	g := graph.Cycle(3, graph.UnitWeights())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double send")
		}
	}()
	NewNetwork(NewTopology(g), func(int) Program { return doubleSender{} }, nil)
}

type doubleSender struct{}

func (doubleSender) Init(ctx *Context) {
	e := ctx.Neighbors()[0].Edge
	ctx.Send(e, Payload{})
	ctx.Send(e, Payload{})
}
func (doubleSender) Round(*Context, []Message) bool { return true }

func TestSendOnNonIncidentEdgePanics(t *testing.T) {
	g := graph.Cycle(4, graph.UnitWeights())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-incident edge")
		}
	}()
	NewNetwork(NewTopology(g), func(v int) Program { return badEdgeSender{} }, nil)
}

type badEdgeSender struct{}

func (badEdgeSender) Init(ctx *Context) {
	// Edge 2 (between vertices 2 and 3) is not incident to vertices 0.
	if ctx.Node() == 0 {
		ctx.Send(2, Payload{})
	}
}
func (badEdgeSender) Round(*Context, []Message) bool { return true }

func TestMessageAccounting(t *testing.T) {
	g := graph.Cycle(5, graph.UnitWeights())
	net := NewNetwork(NewTopology(g), func(int) Program { return oneShot{} }, nil)
	m, err := net.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	// Every node broadcasts once in Init: 2 messages per node on a cycle.
	if m.Messages != 10 {
		t.Errorf("messages = %d, want 10", m.Messages)
	}
	if m.Bits != 10*int64(Payload{}.Bits()) {
		t.Errorf("bits = %d", m.Bits)
	}
}

type oneShot struct{}

func (oneShot) Init(ctx *Context)              { ctx.Broadcast(Payload{Kind: 7}) }
func (oneShot) Round(*Context, []Message) bool { return true }

func TestSendToNeighbor(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	var got []Message
	net := NewNetwork(NewTopology(g), func(v int) Program {
		return &captor{target: 1 - v, out: &got, me: v}
	}, nil)
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("captured %d messages, want 2", len(got))
	}
}

type captor struct {
	target int
	me     int
	out    *[]Message
	sent   bool
}

func (c *captor) Init(ctx *Context) {
	ctx.SendTo(c.target, Payload{Kind: 3, A: int64(c.me)})
	c.sent = true
}

func (c *captor) Round(_ *Context, inbox []Message) bool {
	*c.out = append(*c.out, inbox...)
	return true
}

// TestSendToParallelEdges checks the documented SendTo tie-break on a
// multigraph: repeated sends to the same neighbour in one round use unused
// parallel edges in ascending edge-ID order.
func TestSendToParallelEdges(t *testing.T) {
	g := graph.New(2)
	e0 := g.AddEdge(0, 1, 1)
	e1 := g.AddEdge(0, 1, 1)
	e2 := g.AddEdge(0, 1, 1)
	var got []Message
	net := NewNetwork(NewTopology(g), func(v int) Program {
		if v == 0 {
			return &tripleSender{}
		}
		return &captor{target: 0, out: &got, me: v}
	}, nil)
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("captured %d messages, want 3", len(got))
	}
	for i, wantEdge := range []int{e0, e1, e2} {
		if got[i].Edge != wantEdge {
			t.Errorf("message %d travelled edge %d, want %d (ascending edge IDs)", i, got[i].Edge, wantEdge)
		}
	}
}

type tripleSender struct{ sent bool }

func (s *tripleSender) Init(ctx *Context) {
	for i := int64(0); i < 3; i++ {
		ctx.SendTo(1, Payload{Kind: 4, A: i})
	}
	s.sent = true
}
func (s *tripleSender) Round(*Context, []Message) bool { return true }

// TestArenaReuse runs simulations of different shapes and sizes through one
// arena and checks each against an arena-free reference run.
func TestArenaReuse(t *testing.T) {
	arena := NewArena()
	graphs := []*graph.Graph{
		graph.Cycle(10, graph.UnitWeights()),
		graph.Grid(4, 12, graph.UnitWeights()),
		graph.Cycle(6, graph.UnitWeights()),
	}
	for rep := 0; rep < 3; rep++ {
		for gi, g := range graphs {
			fresh := NewNetwork(NewTopology(g), func(int) Program { return &floodProgram{} }, nil)
			wantM, err := fresh.Run(100)
			if err != nil {
				t.Fatal(err)
			}
			reused := NewNetwork(NewTopology(g), func(int) Program { return &floodProgram{} }, arena)
			gotM, err := reused.Run(100)
			if err != nil {
				t.Fatalf("rep %d graph %d: %v", rep, gi, err)
			}
			if gotM != wantM {
				t.Errorf("rep %d graph %d: arena metrics %+v, want %+v", rep, gi, gotM, wantM)
			}
			for v := 0; v < g.N(); v++ {
				if reused.Program(v).(*floodProgram).heardAt != fresh.Program(v).(*floodProgram).heardAt {
					t.Errorf("rep %d graph %d: vertex %d state diverges under arena reuse", rep, gi, v)
				}
			}
		}
	}
}

// TestArenaStampResetClearsFullBacking forces the stamp-headroom reset while
// the arena's current sentStamp view is smaller than its backing array, then
// reuses the full backing: stale stamps beyond the shrunken view must not
// survive the reset and read as "port already used".
func TestArenaStampResetClearsFullBacking(t *testing.T) {
	arena := NewArena()
	big := graph.Cycle(64, graph.UnitWeights())
	small := graph.Cycle(8, graph.UnitWeights())
	run := func(a *NetworkArena, g *graph.Graph, p func() Program) Metrics {
		net := NewNetwork(NewTopology(g), func(int) Program { return p() }, a)
		m, err := net.Run(200)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	countdown := func() Program { return &countdownBroadcaster{left: 50} }
	// A node that stays silent until round 50 first touches its ports at
	// exactly the stamp value the first run left behind (its last broadcast
	// round) — the one access pattern that can meet a stale stamp.
	delayed := func() Program { return &delayedBroadcaster{wait: 50} }

	run(arena, big, countdown) // leaves stamp 51 on all 128 ports
	run(arena, small, countdown)
	arena.stamp = 1 << 31 // force the headroom reset on the next acquire
	got := run(arena, big, delayed)
	want := run(NewArena(), big, delayed)
	if got != want {
		t.Errorf("big graph after stamp reset: metrics %+v, want %+v", got, want)
	}
}

// countdownBroadcaster broadcasts on every port for a fixed number of rounds.
type countdownBroadcaster struct{ left int }

func (c *countdownBroadcaster) Init(*Context) {}
func (c *countdownBroadcaster) Round(ctx *Context, _ []Message) bool {
	if c.left > 0 {
		c.left--
		ctx.Broadcast(Payload{Kind: 9})
	}
	return c.left == 0
}

// delayedBroadcaster is silent until its wait elapses, then broadcasts once.
type delayedBroadcaster struct{ wait int }

func (d *delayedBroadcaster) Init(*Context) {}
func (d *delayedBroadcaster) Round(ctx *Context, _ []Message) bool {
	d.wait--
	if d.wait == 0 {
		ctx.Broadcast(Payload{Kind: 9})
	}
	return d.wait <= 0
}

// TestArenaStepAfterRunPanics pins the ownership rule: once Run returns an
// arena-backed network's buffers, stepping it again must fail loudly rather
// than corrupt a successor network.
func TestArenaStepAfterRunPanics(t *testing.T) {
	g := graph.Cycle(4, graph.UnitWeights())
	net := NewNetwork(NewTopology(g), func(int) Program { return oneShot{} }, NewArena())
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic stepping a released network")
		}
	}()
	net.Step()
}

// TestArenaNestedFallsBack checks that a second network built from a busy
// arena silently gets fresh buffers instead of corrupting the first.
func TestArenaNestedFallsBack(t *testing.T) {
	g := graph.Cycle(8, graph.UnitWeights())
	arena := NewArena()
	outer := NewNetwork(NewTopology(g), func(int) Program { return &floodProgram{} }, arena)
	inner := NewNetwork(NewTopology(g), func(int) Program { return &floodProgram{} }, arena)
	im, err := inner.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	om, err := outer.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if im != om {
		t.Errorf("inner metrics %+v differ from outer %+v", im, om)
	}
}

// TestSharedTopologyMatchesOwnTopology runs two different programs over one
// shared Topology and over a topology each, and checks that sharing changes
// neither the metrics nor any node's final state. The multigraph makes
// SendTo walk parallel edges through the shared sorted port lists.
func TestSharedTopologyMatchesOwnTopology(t *testing.T) {
	g := graph.Grid(4, 6, graph.UnitWeights())
	for _, e := range []int{0, 5, 9, 17} {
		ed := g.Edge(e)
		g.AddEdge(ed.V, ed.U, 2) // parallel edges, endpoints reversed
	}
	programs := []func(int) Program{
		func(int) Program { return &floodProgram{} },
		func(int) Program { return &echoProgram{} },
	}
	type outcome struct {
		m     Metrics
		state []string
	}
	run := func(topo *Topology, f func(int) Program) outcome {
		net := NewNetwork(topo, f, nil)
		m, err := net.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{m: m}
		for v := 0; v < g.N(); v++ {
			out.state = append(out.state, fmt.Sprintf("%+v", net.Program(v)))
		}
		return out
	}
	shared := NewTopology(g)
	for i, f := range programs {
		got, want := run(shared, f), run(NewTopology(g), f)
		if got.m != want.m {
			t.Errorf("program %d: shared-topology metrics %+v, want %+v", i, got.m, want.m)
		}
		for v := range want.state {
			if got.state[v] != want.state[v] {
				t.Errorf("program %d vertex %d: shared-topology state %s, want %s", i, v, got.state[v], want.state[v])
			}
		}
	}
}

// echoProgram sends one message to each entry of its neighbour list (so a
// neighbour reached by k parallel edges gets k messages, via SendTo) and
// records the (sender, edge) sequence it receives.
type echoProgram struct{ heard []int }

func (p *echoProgram) Init(ctx *Context) {
	for _, nb := range ctx.Neighbors() {
		ctx.SendTo(nb.ID, Payload{Kind: 5, A: int64(ctx.Node())})
	}
}

func (p *echoProgram) Round(_ *Context, inbox []Message) bool {
	for _, m := range inbox {
		p.heard = append(p.heard, m.From, m.Edge)
	}
	return true
}

// TestNewNetworkPanicsOnStaleTopology checks that a topology built before
// the graph gained an edge is refused rather than silently missing it.
func TestNewNetworkPanicsOnStaleTopology(t *testing.T) {
	g := graph.Cycle(5, graph.UnitWeights())
	topo := NewTopology(g)
	g.AddEdge(0, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a topology older than its graph")
		}
	}()
	NewNetwork(topo, func(int) Program { return oneShot{} }, nil)
}

// TestSendToParallelEdgesUnsortedNeighbors checks the SendTo tie-break when
// a node's adjacency order is not its neighbour-ID order: vertex 0's ports
// lead to 2, 1, 2, 1, 2, and the edges are added with 0 as U for some and V
// for others. Repeated sends to one neighbour must still take its unused
// parallel edges in ascending edge-ID order, from both ends.
func TestSendToParallelEdgesUnsortedNeighbors(t *testing.T) {
	g := graph.New(3)
	e0 := g.AddEdge(0, 2, 1)
	e1 := g.AddEdge(1, 0, 1)
	e2 := g.AddEdge(2, 0, 1)
	e3 := g.AddEdge(0, 1, 1)
	e4 := g.AddEdge(0, 2, 1)
	var heard [3][]Message
	net := NewNetwork(NewTopology(g), func(v int) Program {
		return &sendToScript{out: &heard[v], sends: map[int][]int{0: {2, 1, 2, 2, 1}, 2: {0, 0, 0}}[v]}
	}, nil)
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	edges := func(ms []Message, from int) []int {
		var out []int
		for _, m := range ms {
			if m.From == from {
				out = append(out, m.Edge)
			}
		}
		return out
	}
	for _, c := range []struct {
		to, from int
		want     []int
	}{
		{2, 0, []int{e0, e2, e4}},
		{1, 0, []int{e1, e3}},
		{0, 2, []int{e0, e2, e4}},
	} {
		if got := edges(heard[c.to], c.from); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%d→%d travelled edges %v, want %v (ascending edge IDs)", c.from, c.to, got, c.want)
		}
	}
}

// sendToScript calls SendTo once per entry of sends in Init and records
// every message it receives.
type sendToScript struct {
	sends []int
	out   *[]Message
}

func (s *sendToScript) Init(ctx *Context) {
	for i, to := range s.sends {
		ctx.SendTo(to, Payload{Kind: 6, A: int64(i)})
	}
}

func (s *sendToScript) Round(_ *Context, inbox []Message) bool {
	*s.out = append(*s.out, inbox...)
	return true
}

// TestDoneRoundWithDeliveryDoesNotQuiesce covers the in-flight check: in
// round 1 every node reports done, but vertex 0 sends a message that round,
// so the network must not quiesce until the message has been received. The
// inbox it lands in must be empty again the round after.
func TestDoneRoundWithDeliveryDoesNotQuiesce(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	var inboxLens []int
	net := NewNetwork(NewTopology(g), func(v int) Program {
		return &lateSender{me: v, lens: &inboxLens}
	}, nil)
	if net.Step() {
		t.Fatal("round 1 quiesced with a message in flight")
	}
	if !net.Step() {
		t.Fatal("round 2 did not quiesce after the message was received")
	}
	net.Step()
	if want := []int{0, 1, 0}; fmt.Sprint(inboxLens) != fmt.Sprint(want) {
		t.Errorf("vertex 1 inbox sizes per round %v, want %v", inboxLens, want)
	}
	if m := net.Metrics(); m.Messages != 1 {
		t.Errorf("messages = %d, want 1", m.Messages)
	}
}

// lateSender: vertex 0 sends one message to vertex 1 in round 1; vertex 1
// records its inbox size each round; every node always reports done.
type lateSender struct {
	me    int
	round int
	lens  *[]int
}

func (p *lateSender) Init(*Context) {}

func (p *lateSender) Round(ctx *Context, inbox []Message) bool {
	p.round++
	if p.me == 0 && p.round == 1 {
		ctx.SendTo(1, Payload{Kind: 8})
	}
	if p.me == 1 {
		*p.lens = append(*p.lens, len(inbox))
	}
	return true
}
