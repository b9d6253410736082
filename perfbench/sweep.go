package main

import (
	"math/rand"
	"time"

	kecss "repro"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/wire"
)

// sweep-mixed: one kecss.Pool sweeping a fixed task list of two kinds.
// K=4 Aug_k solves spend their time in Karger–Stein cut enumeration;
// simulated-MST 2-ECSS solves spend theirs in Borůvka on the CONGEST
// simulator. Every graph gets two trials, so Pool.preValidate's per-graph
// dedup runs, and cycles.CoverIndex is idle.
const (
	sweepK       = 4
	sweepKN      = 150
	sweepKExtra  = 300
	sweepKGraphs = 8
	sweep2N      = 2000
	sweep2Extra  = 4000
	sweep2Graphs = 12
	sweepTrials  = 2
	sweepMaxW    = 100
)

type sweepInput struct {
	tasks  []kecss.Task
	k      []int // connectivity each task's output must have
	twoEC  []*graph.Graph
	kGraph []*graph.Graph
}

func sweepInputs(seed int64) (*sweepInput, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &sweepInput{}
	for i := 0; i < sweepKGraphs; i++ {
		in.kGraph = append(in.kGraph, graph.RandomKConnected(sweepKN, sweepK, sweepKExtra, rng, graph.RandomWeights(rng, sweepMaxW)))
	}
	for i := 0; i < sweep2Graphs; i++ {
		in.twoEC = append(in.twoEC, graph.RandomKConnected(sweep2N, 2, sweep2Extra, rng, graph.RandomWeights(rng, sweepMaxW)))
	}
	base := rng.Int63()
	// Interleave the kinds so both workers stay busy to the end of a sweep.
	for i := 0; i < max(sweepKGraphs, sweep2Graphs); i++ {
		for t := 0; t < sweepTrials; t++ {
			if i < sweepKGraphs {
				in.tasks = append(in.tasks, kecss.Task{Graph: in.kGraph[i], Solver: kecss.SolverKECSS, K: sweepK,
					Opts: []kecss.Option{kecss.WithSeed(base)}})
				in.k = append(in.k, sweepK)
			}
			if i < sweep2Graphs {
				in.tasks = append(in.tasks, kecss.Task{Graph: in.twoEC[i], Solver: kecss.Solver2ECSS,
					Opts: []kecss.Option{kecss.WithSeed(base), kecss.WithSimulatedMST()}})
				in.k = append(in.k, 2)
			}
		}
	}
	return in, nil
}

type sweepFixture struct {
	in   *sweepInput
	pool *kecss.Pool
}

func newSweepFixture(e env) (*sweepFixture, error) {
	in, err := sweepInputs(e.seed)
	if err != nil {
		return nil, err
	}
	return &sweepFixture{in: in, pool: kecss.NewPool(e.workers)}, nil
}

// sweepChecker holds the first sweep's per-task output digests; every later
// sweep must reproduce them, and the first sweep's outputs are audited.
type sweepChecker struct {
	digests []string
	first   []kecss.Result
}

// check counts a sweep's tasks and failures against the reference.
func (c *sweepChecker) check(r *report, res []kecss.Result) {
	for i, x := range res {
		r.attempted++
		if x.Err != nil {
			r.fail("task %d: %v", i, x.Err)
			continue
		}
		d := wire.SolveResultDigest(x.Edges, x.Weight, x.Rounds)
		if c.digests == nil {
			continue
		}
		if d != c.digests[i] {
			r.fail("task %d: output %s differs from the first sweep's %s", i, d, c.digests[i])
		}
	}
	if c.digests == nil {
		c.first = res
		c.digests = make([]string, len(res))
		for i, x := range res {
			c.digests[i] = wire.SolveResultDigest(x.Edges, x.Weight, x.Rounds)
		}
	}
}

// audit verifies the first sweep's outputs, folds the workload digest and
// returns the mean output weight per solve.
func (c *sweepChecker) audit(r *report, in *sweepInput) float64 {
	var total int64
	for i, x := range c.first {
		if x.Err == nil && !kecss.VerifyKEdgeConnected(in.tasks[i].Graph, x.Edges, in.k[i]) {
			r.fail("task %d: output is not %d-edge-connected", i, in.k[i])
		}
		total += x.Weight
	}
	r.digest = foldDigests(c.digests)
	return float64(total) / float64(len(c.first))
}

func runSweep(e env) (*report, error) {
	r := &report{workload: "sweep-mixed"}
	fx, setup, err := medianSetup(3, func() (*sweepFixture, error) { return newSweepFixture(e) },
		func(f *sweepFixture) { f.pool.Close() })
	if err != nil {
		return nil, err
	}
	defer fx.pool.Close()
	var c sweepChecker
	// One untimed sweep fills the pool's arenas and sets the reference
	// outputs every timed sweep is checked against.
	c.check(r, fx.pool.Sweep(fx.in.tasks))
	var perSolve []float64
	solves := 0
	var busy time.Duration
	for busy < e.budget || solves == 0 {
		t0 := time.Now()
		res := fx.pool.Sweep(fx.in.tasks)
		d := time.Since(t0)
		busy += d
		solves += len(res)
		perSolve = append(perSolve, ms(d)*float64(fx.pool.Workers())/float64(len(res)))
		c.check(r, res)
	}
	weight := c.audit(r, fx.in)
	r.add("setup_s", setup, "s")
	r.add("solves_per_s", float64(solves)/busy.Seconds(), "1/s")
	r.add("solve_p50_ms", median(perSolve), "ms")
	r.add("solution_weight", weight, "weight")
	r.notef("%d sweeps of %d tasks on %d workers in %.2fs; solve_p50_ms is the median over sweeps of the worker time per solve",
		len(perSolve), len(fx.in.tasks), fx.pool.Workers(), busy.Seconds())
	return r, nil
}

// traceSweep alternates sweeps with a per-task phase observer and plain
// sweeps, then times the simulator and the connectivity check directly on
// the inputs.
func traceSweep(e env) (*report, error) {
	r := &report{workload: "sweep-mixed"}
	fx, err := newSweepFixture(e)
	if err != nil {
		return nil, err
	}
	defer fx.pool.Close()
	var c sweepChecker
	c.check(r, fx.pool.Sweep(fx.in.tasks))
	b := newPhaseBreakdown()
	var tracedMS float64
	var overhead []float64 // traced / untraced wall of each pair of sweeps
	var taskBusy, sweepWall time.Duration
	start := time.Now()
	for i := 0; i%2 == 1 || i < 2 || time.Since(start) < e.budget; i++ {
		tasks := fx.in.tasks
		var logs []phaseLog
		if i%2 == 0 {
			logs = make([]phaseLog, len(tasks))
			tasks = make([]kecss.Task, len(fx.in.tasks))
			for j, t := range fx.in.tasks {
				t.Opts = append(append([]kecss.Option(nil), t.Opts...), kecss.WithPhaseObserver(logs[j].observe))
				tasks[j] = t
			}
		}
		t0 := time.Now()
		res := fx.pool.Sweep(tasks)
		d := time.Since(t0)
		c.check(r, res)
		if logs == nil {
			overhead = append(overhead, tracedMS/ms(d))
			continue
		}
		tracedMS = ms(d)
		sweepWall += d
		for j, l := range logs {
			if len(l.evs) == 0 || res[j].Err != nil {
				continue
			}
			// The pool runs the task out of sight; its solve window is
			// first phase start to last phase end.
			from, to := l.evs[0].Start, l.evs[0].Start
			for _, ev := range l.evs {
				from = minTime(from, ev.Start)
				to = maxTime(to, ev.Start.Add(ev.Duration))
			}
			taskBusy += to.Sub(from)
			b.addSolve(from, to, l.evs, res[j].Rounds)
		}
	}
	c.audit(r, fx.in)

	var connMS, roundUS, msgsPerRound []float64
	for _, g := range fx.in.kGraph {
		t0 := time.Now()
		lam := g.EdgeConnectivityUpTo(sweepK)
		connMS = append(connMS, ms(time.Since(t0)))
		if lam < sweepK {
			r.fail("input graph has λ=%d < %d", lam, sweepK)
		}
	}
	for _, g := range fx.in.twoEC {
		t0 := time.Now()
		res, err := mst.DistributedBoruvka(g)
		d := time.Since(t0)
		if err != nil {
			r.fail("DistributedBoruvka: %v", err)
			continue
		}
		roundUS = append(roundUS, float64(d.Microseconds())/float64(res.Metrics.Rounds))
		msgsPerRound = append(msgsPerRound, float64(res.Metrics.Messages)/float64(res.Metrics.Rounds))
	}

	for _, p := range []string{"cut-enum", "ks-sweep", "ks-materialise", "mst", "tap", "audit"} {
		r.add("core."+p+"_ms", b.perSolveMS(p), "ms")
	}
	r.add("core.cut-enum_cuts", b.perSolve(b.items["cut-enum"]), "count")
	r.add("core.ks-sweep_steps", b.perSolve(b.items["ks-sweep"]), "count")
	r.add("sweep.core.augment_ms", b.perSolveMS("augment"), "ms")
	r.add("sweep.core.other_ms", b.otherMS(), "ms")
	r.add("sweep.core.coverage_pct", b.coveragePct(), "%")
	r.add("sweep.core.rounds", b.perSolve(b.rounds), "count")
	r.add("sweep.core.messages", b.perSolve(b.msgs), "count")
	r.add("sweep.trace_overhead_ratio", median(overhead), "ratio")
	r.add("sweep.graph.edge_connectivity_ms", median(connMS), "ms")
	r.add("congest.round_us", median(roundUS), "us")
	r.add("congest.messages_per_round", median(msgsPerRound), "count")
	r.add("pool.busy_ratio", taskBusy.Seconds()/(float64(fx.pool.Workers())*sweepWall.Seconds()), "ratio")
	b.notePhases(r)
	r.notef("trace overhead: median traced/untraced wall over %d pairs of sweeps", len(overhead))
	return r, nil
}

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
