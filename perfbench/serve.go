package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	kecss "repro"
	"repro/internal/graph"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// serve-mixed: an in-process fused server (mode "all", journal and store on
// disk, default cache) behind a loopback listener, driven open-loop with
// the request families of serve.json. Half the requests repeat a digest
// served during set-up (the read path: decode, digest, cache read,
// encode); half carry a fresh seed (the write path: journal fsync,
// enqueue, claim, solve, store put).
//
//go:embed serve.json
var serveFamilies []byte

const (
	// serveWarm distinct requests are served during set-up; every repeat
	// draws from them.
	serveWarm = 32
	// serveLowRate and serveHighRate (req/s) are about 1/3 and 2/3 of the
	// open-loop mixed capacity (serve.max_rps) measured on a 2-CPU Xeon @
	// 2.10GHz with 2 connections. The closed-loop capacity is about twice
	// that: paced arrivals leave the pipeline idle between requests, and
	// every handoff then pays a thread wake-up.
	serveLowRate  = 110
	serveHighRate = 220
	// serveLimitMS bounds the tail latency a ladder step may have and still
	// count towards serve.max_rps.
	serveLimitMS = 40
	// The ladder climbs from serveHighRate by serveLadderStep per step.
	serveLadderStep  = 1.07
	serveLadderSteps = 14
	serveTimeout     = 10 * time.Second
)

// Shares of the run's budget: the low and high phases, and each ladder step.
const (
	serveLowShare      = 0.15
	serveHighShare     = 0.25
	serveCapacityShare = 0.20
	serveStepShare     = 0.025
)

// serveCapacityCeiling (req/s) sizes the closed-loop request list: about
// twice the mixed closed-loop capacity of the reference box. Windows after
// the list runs out do not count.
const serveCapacityCeiling = 1500

type serveRequest struct {
	body   []byte
	digest string // wire.Digest of the request, computed by the client
	g      *graph.Graph
	task   kecss.Task
	k      int // connectivity the output must have
	family int // index into serve.json's scenarios
	repeat bool
}

// serveGen deals requests: repeats of the set-up requests and fresh seeds
// over the families, deterministically from the workload seed.
type serveGen struct {
	rng      *rand.Rand
	families []*wire.SolveRequest
	graphs   []*graph.Graph
	warm     []*serveRequest
	fresh    int // fresh requests dealt so far
}

func newServeGen(seed int64) (*serveGen, error) {
	var f scenario.File
	if err := json.Unmarshal(serveFamilies, &f); err != nil {
		return nil, fmt.Errorf("serve.json: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	gen := &serveGen{rng: rng}
	for i := range f.Scenarios {
		sc := &f.Scenarios[i]
		g, err := sc.BuildGraph()
		if err != nil {
			return nil, fmt.Errorf("family %s: %w", sc.Name, err)
		}
		solver := sc.Solver
		if solver == "" {
			solver = "2ecss"
		}
		gen.graphs = append(gen.graphs, g)
		gen.families = append(gen.families, &wire.SolveRequest{
			Graph:     wire.GraphToJSON(g),
			SolveSpec: wire.SolveSpec{Solver: solver, K: sc.TargetK(), SimulateMST: sc.SimulateMST},
		})
	}
	for i := 0; i < serveWarm; i++ {
		rq, err := gen.next()
		if err != nil {
			return nil, err
		}
		gen.warm = append(gen.warm, rq)
	}
	return gen, nil
}

// next builds a request with a new seed. Families take turns, so every
// run sends each family the same share of misses.
func (gen *serveGen) next() (*serveRequest, error) {
	fi := gen.fresh % len(gen.families)
	gen.fresh++
	req := *gen.families[fi]
	req.Seed = gen.rng.Int63()
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	solver, err := kecss.ParseSolver(req.Solver)
	if err != nil {
		return nil, err
	}
	k := map[string]int{"2ecss": 2, "kecss": req.K, "3ecss": 3, "3ecss-weighted": 3}[req.Solver]
	g := gen.graphs[fi]
	return &serveRequest{
		body:   body,
		digest: wire.Digest(g, req.SolveSpec),
		g:      g,
		task:   kecss.Task{Graph: g, Solver: solver, K: req.K, Opts: server.OptionsFromSpec(req.SolveSpec)},
		k:      k,
		family: fi,
	}, nil
}

// schedule deals n requests, exactly half of them repeats, in random order.
func (gen *serveGen) schedule(n int) ([]*serveRequest, error) {
	repeat := make([]bool, n)
	for i := 0; i < n/2; i++ {
		repeat[i] = true
	}
	gen.rng.Shuffle(n, func(i, j int) { repeat[i], repeat[j] = repeat[j], repeat[i] })
	out := make([]*serveRequest, n)
	for i := range out {
		if repeat[i] {
			cp := *gen.warm[gen.rng.Intn(len(gen.warm))]
			cp.repeat = true
			out[i] = &cp
			continue
		}
		rq, err := gen.next()
		if err != nil {
			return nil, err
		}
		out[i] = rq
	}
	return out, nil
}

// serveFixture is one fused server with its listener and client.
type serveFixture struct {
	dir    string
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	warm   []sample
}

// newServeFixture starts a server in a fresh directory (journal and store
// on disk) and serves every set-up request once, cold.
func newServeFixture(e env, gen *serveGen, keepTraces bool) (*serveFixture, error) {
	dir, err := os.MkdirTemp(e.tmpdir, "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		Mode:        "all",
		Workers:     e.workers,
		JournalPath: filepath.Join(dir, "journal.log"),
		StoreDir:    filepath.Join(dir, "store"),
	}
	if keepTraces {
		// Keep every finished trace, so the traced pass can fetch them all
		// after its timed window.
		cfg.TraceRecent = 1 << 16
	}
	srv, err := server.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &serveFixture{
		dir: dir,
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Timeout: serveTimeout, Transport: &http.Transport{
			MaxIdleConnsPerHost: e.workers,
			MaxConnsPerHost:     e.workers,
		}},
	}
	for _, rq := range gen.warm {
		s := sample{req: rq, due: time.Now()}
		s.sent = s.due
		f.post(&s)
		if s.code != http.StatusOK {
			f.close()
			return nil, fmt.Errorf("set-up request failed: %d %v %s", s.code, s.err, s.body)
		}
		f.warm = append(f.warm, s)
	}
	return f, nil
}

func (f *serveFixture) close() {
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.srv.Drain(ctx) // Close below fails whatever is left
	f.srv.Close()
	f.client.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// sample is one request of an open-loop phase.
type sample struct {
	req             *serveRequest
	due, sent, done time.Time
	code            int
	body            []byte
	job             string // X-Kecss-Job: set on the miss path
	err             error
}

func (f *serveFixture) post(s *sample) {
	resp, err := f.client.Post(f.ts.URL+"/v1/solve", "application/json", bytes.NewReader(s.req.body))
	if err != nil {
		s.err, s.done = err, time.Now()
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.code = resp.StatusCode
	s.job = resp.Header.Get("X-Kecss-Job")
}

// openLoop sends reqs on a fixed schedule at rate req/s over conns
// connections. A request whose connection is still busy when it falls due
// waits, and its latency counts from the due time.
func (f *serveFixture) openLoop(reqs []*serveRequest, rate float64, conns int) []sample {
	samples := make([]sample, len(reqs))
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &samples[i]
				s.req, s.due = reqs[i], dueTime(start, rate, i)
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				s.sent = time.Now()
				f.post(s)
				if !s.req.repeat {
					s.req.body = nil // sent once; let the heap shed it
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop sends reqs back to back over conns connections until d has
// passed or reqs run out. It returns the samples sent and the throughput:
// the trimmed mean of the rates of the window's whole seconds.
func (f *serveFixture) closedLoop(reqs []*serveRequest, conns int, d time.Duration) ([]sample, float64) {
	samples := make([]sample, len(reqs))
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &samples[i]
				s.req = reqs[i]
				s.due = time.Now()
				s.sent = s.due
				f.post(s)
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(reqs))
	samples = samples[:n]
	windows := int(d / time.Second)
	if n == len(reqs) {
		// Ran out of requests: only the seconds before the last send count.
		windows = min(windows, int(samples[n-1].sent.Sub(start)/time.Second))
	}
	// Each whole second's rate is measured between its first and last
	// completion.
	first := make([]time.Time, max(1, windows))
	last := make([]time.Time, len(first))
	count := make([]int, len(first))
	for i := range samples {
		done := samples[i].done
		w := int(done.Sub(start) / time.Second)
		if w >= len(first) {
			continue
		}
		if count[w] == 0 || done.Before(first[w]) {
			first[w] = done
		}
		if done.After(last[w]) {
			last[w] = done
		}
		count[w]++
	}
	var rates []float64
	for w := range first {
		if count[w] > 1 {
			rates = append(rates, float64(count[w]-1)/last[w].Sub(first[w]).Seconds())
		}
	}
	return samples, trimmedMean(rates)
}

// trimmedMean is the mean of xs without its lowest and highest value (when
// there are at least four): one second of interference from another tenant
// of the machine moves it little.
func trimmedMean(xs []float64) float64 {
	if len(xs) < 4 {
		return mean(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[1 : len(s)-1])
}

// phaseStats are the latencies of one open-loop phase, in ms.
type phaseStats struct {
	rate                 float64
	lat, hit, miss, late []float64
	missByFamily         map[int][]float64
	bad                  int
}

func statsOf(rate float64, ss []sample) phaseStats {
	p := phaseStats{rate: rate, missByFamily: map[int][]float64{}}
	for i := range ss {
		s := &ss[i]
		lat, late := openLoopTiming(s.due, s.sent, s.done)
		p.lat = append(p.lat, ms(lat))
		p.late = append(p.late, ms(late))
		if s.req.repeat {
			p.hit = append(p.hit, ms(lat))
		} else {
			p.miss = append(p.miss, ms(lat))
			p.missByFamily[s.req.family] = append(p.missByFamily[s.req.family], ms(lat))
		}
		if s.err != nil || s.code != http.StatusOK {
			p.bad++
		}
	}
	return p
}

// missP50 is the mean over families of each family's median miss latency.
// The families solve at different speeds, so a median over all misses
// would sit on the edge between two of them and jump from run to run.
func (p phaseStats) missP50() float64 {
	var meds []float64
	for _, xs := range p.missByFamily {
		meds = append(meds, median(xs))
	}
	return mean(meds)
}

// tailMS is the phase's tail latency; a failed request misses any limit.
func (p phaseStats) tailMS() float64 {
	if p.bad > 0 {
		return math.Inf(1)
	}
	_, v, ok := tail(p.lat)
	if !ok {
		return math.Inf(1)
	}
	return v
}

func (p phaseStats) describe(name string) string {
	level, v, _ := tail(p.lat)
	lateLevel, late, _ := tail(p.late)
	return fmt.Sprintf("%s: %.0f req/s, %d requests, p50 %.2f ms, p%g %.2f ms, sender late p%g %.2f ms, %d failed",
		name, p.rate, len(p.lat), median(p.lat), level, v, lateLevel, late, p.bad)
}

// runPhase deals and sends one open-loop phase of the given length.
func runPhase(f *serveFixture, gen *serveGen, e env, rate float64, d time.Duration) ([]sample, error) {
	reqs, err := gen.schedule(max(1, int(rate*d.Seconds())))
	if err != nil {
		return nil, err
	}
	return f.openLoop(reqs, rate, e.workers), nil
}

// interpolateRate estimates where the tail crosses the limit between a
// passing step (r0, t0) and a failing one (r1, t1).
func interpolateRate(r0, t0, r1, t1, limit float64) float64 {
	if math.IsInf(t1, 1) || t1 <= t0 {
		return r0
	}
	frac := min(1, max(0, (limit-t0)/(t1-t0)))
	return r0 + frac*(r1-r0)
}

func runServe(e env) (*report, error) {
	r := &report{workload: "serve-mixed", alias: map[string]string{
		"solves_per_s":    "serve.capacity_rps",
		"solve_p50_ms":    "serve.miss_p50_ms",
		"solution_weight": "serve.solution_weight",
	}}
	var gen *serveGen
	f, setup, err := medianSetup(3, func() (*serveFixture, error) {
		var err error
		if gen, err = newServeGen(e.seed); err != nil {
			return nil, err
		}
		return newServeFixture(e, gen, false)
	}, (*serveFixture).close)
	if err != nil {
		return nil, err
	}
	defer f.close()

	budget := e.budget
	low, err := runPhase(f, gen, e, serveLowRate, time.Duration(serveLowShare*float64(budget)))
	if err != nil {
		return nil, err
	}
	high, err := runPhase(f, gen, e, serveHighRate, time.Duration(serveHighShare*float64(budget)))
	if err != nil {
		return nil, err
	}
	lowS, highS := statsOf(serveLowRate, low), statsOf(serveHighRate, high)
	r.notef("%s", lowS.describe("low"))
	r.notef("%s", highS.describe("high"))

	// Closed-loop capacity: every connection sends its next request as
	// soon as the last one returns.
	capDur := time.Duration(serveCapacityShare * float64(budget))
	capReqs, err := gen.schedule(int(serveCapacityCeiling * capDur.Seconds()))
	if err != nil {
		return nil, err
	}
	capSamples, capacity := f.closedLoop(capReqs, e.workers, capDur)
	r.notef("closed loop: %d connections, %d requests, %.0f req/s", e.workers, len(capSamples), capacity)

	// The ladder starts from the high phase; it stops at the first step
	// whose tail misses the limit (a growing backlog shows as latency from
	// the due time growing past it).
	sent := append(append(append([]sample(nil), low...), high...), capSamples...)
	prevRate, prevTail := float64(serveHighRate), highS.tailMS()
	maxRPS := 0.0
	if prevTail > serveLimitMS {
		maxRPS = interpolateRate(serveLowRate, lowS.tailMS(), serveHighRate, prevTail, serveLimitMS)
		r.notef("high rate already misses the %d ms limit; ladder skipped", serveLimitMS)
	}
	for step := 1; maxRPS == 0 && step <= serveLadderSteps; step++ {
		rate := serveHighRate * math.Pow(serveLadderStep, float64(step))
		ss, err := runPhase(f, gen, e, rate, time.Duration(serveStepShare*float64(budget)))
		if err != nil {
			return nil, err
		}
		sent = append(sent, ss...)
		st := statsOf(rate, ss)
		r.notef("%s", st.describe(fmt.Sprintf("ladder step %d", step)))
		if t := st.tailMS(); t > serveLimitMS {
			maxRPS = interpolateRate(prevRate, prevTail, rate, t, serveLimitMS)
		} else {
			prevRate, prevTail = rate, t
		}
	}
	if maxRPS == 0 {
		maxRPS = prevRate
		r.notef("every ladder step met the limit; serve.max_rps is the top step")
	}

	weight := checkServed(r, e, f.warm, sent, len(low)+len(high))
	lowLevel, lowTail, _ := tail(lowS.lat)
	highLevel, highTail, _ := tail(highS.lat)
	r.add("setup_s", setup, "s")
	r.add("serve.low.p50_ms", median(lowS.lat), "ms")
	r.add("serve.low.p99_ms", lowTail, "ms")
	r.add("serve.high.p50_ms", median(highS.lat), "ms")
	r.add("serve.high.p99_ms", highTail, "ms")
	r.add("serve.miss_p50_ms", highS.missP50(), "ms")
	r.add("serve.hit_p50_ms", median(highS.hit), "ms")
	r.add("serve.max_rps", maxRPS, "1/s")
	r.add("serve.capacity_rps", capacity, "1/s")
	r.add("serve.solution_weight", weight, "weight")
	r.notef("serve.low.p99_ms is p%g of %d and serve.high.p99_ms p%g of %d: the highest percentile with 10 samples beyond it",
		lowLevel, len(lowS.lat), highLevel, len(highS.lat))
	return r, nil
}

// checkServed audits every response outside the timed region: status 200,
// the request's digest echoed back, a self-consistent result digest equal
// to an in-process solve of the same request, and an output that is
// k-edge-connected. The first nDigest samples (the fixed-length phases)
// fold the workload digest; the return is their mean distinct output
// weight.
func checkServed(r *report, e env, warm, samples []sample, nDigest int) float64 {
	all := append(append([]sample(nil), warm...), samples...)
	expected := solveDirect(e, all)
	audited := map[string]bool{}
	var digests []string
	var weight int64
	distinct := map[string]bool{}
	for i := range all {
		s := &all[i]
		r.attempted++
		if s.err != nil || s.code != http.StatusOK {
			r.fail("request %.12s: status %d, %v: %.200s", s.req.digest, s.code, s.err, s.body)
			continue
		}
		var resp wire.SolveResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			r.fail("request %.12s: undecodable response: %v", s.req.digest, err)
			continue
		}
		got := wire.SolveResultDigest(resp.Edges, resp.Weight, resp.Rounds)
		switch {
		case resp.Digest != s.req.digest:
			r.fail("request %.12s: server digest %.12s", s.req.digest, resp.Digest)
			continue
		case resp.ResultDigest != got || got != expected[s.req.digest]:
			r.fail("request %.12s: served result %s (recomputed %s), in-process %s", s.req.digest, resp.ResultDigest, got, expected[s.req.digest])
			continue
		}
		if !audited[s.req.digest] {
			audited[s.req.digest] = true
			if !kecss.VerifyKEdgeConnected(s.req.g, resp.Edges, s.req.k) {
				r.fail("request %.12s: output is not %d-edge-connected", s.req.digest, s.req.k)
			}
		}
		if j := i - len(warm); j >= 0 && j < nDigest {
			digests = append(digests, got)
			if !distinct[s.req.digest] {
				distinct[s.req.digest] = true
				weight += resp.Weight
			}
		}
	}
	r.digest = foldDigests(digests)
	return float64(weight) / float64(max(1, len(distinct)))
}

// solveDirect solves every distinct request in-process, one single-task
// sweep each as the server does, and returns the result digests by request
// digest.
func solveDirect(e env, samples []sample) map[string]string {
	var reqs []*serveRequest
	seen := map[string]bool{}
	for i := range samples {
		if rq := samples[i].req; !seen[rq.digest] {
			seen[rq.digest] = true
			reqs = append(reqs, rq)
		}
	}
	out := make([]string, len(reqs))
	pool := kecss.NewPool(e.workers)
	defer pool.Close()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				res := pool.Sweep([]kecss.Task{reqs[i].task})[0]
				if res.Err != nil {
					out[i] = "error: " + res.Err.Error()
					continue
				}
				out[i] = wire.SolveResultDigest(res.Edges, res.Weight, res.Rounds)
			}
		}()
	}
	wg.Wait()
	m := make(map[string]string, len(reqs))
	for i, rq := range reqs {
		m[rq.digest] = out[i]
	}
	return m
}

// traceServe runs the high rate with the server's own spans and counters
// as the only instruments: /metrics is scraped around the window and each
// miss's /v1/jobs/{id}/trace is fetched after it, so the traced window
// carries no extra client load.
func traceServe(e env) (*report, error) {
	r := &report{workload: "serve-mixed"}
	gen, err := newServeGen(e.seed)
	if err != nil {
		return nil, err
	}
	f, err := newServeFixture(e, gen, true)
	if err != nil {
		return nil, err
	}
	defer f.close()
	before, err := f.scrape()
	if err != nil {
		return nil, err
	}
	ss, err := runPhase(f, gen, e, serveHighRate, e.budget)
	if err != nil {
		return nil, err
	}
	after, err := f.scrape()
	if err != nil {
		return nil, err
	}
	st := statsOf(serveHighRate, ss)
	r.notef("%s", st.describe("high (traced)"))

	var att spanAttribution
	for i := range ss {
		s := &ss[i]
		if s.req.repeat || s.job == "" || s.err != nil {
			continue
		}
		d, err := f.trace(s.job)
		if err != nil {
			return nil, err
		}
		att.add(d, s.done.Sub(s.sent))
	}
	if att.jobs == 0 {
		return nil, fmt.Errorf("serve-mixed: no miss trace collected")
	}
	checkServed(r, e, f.warm, ss, len(ss))

	// wire layer: decode and digest timed directly on the set-up bodies
	// (every repeat sends one of them).
	var decodeUS, digestUS []float64
	for rep := 0; rep < 10; rep++ {
		for _, rq := range gen.warm {
			t0 := time.Now()
			var req wire.SolveRequest
			err := json.Unmarshal(rq.body, &req)
			var g *graph.Graph
			if err == nil {
				g, err = req.Graph.ToGraph()
			}
			t1 := time.Now()
			if err != nil {
				r.fail("decode: %v", err)
				continue
			}
			dg := wire.Digest(g, req.SolveSpec)
			t2 := time.Now()
			if dg != rq.digest {
				r.fail("digest of the decoded body %.12s differs from %.12s", dg, rq.digest)
			}
			decodeUS = append(decodeUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
			digestUS = append(digestUS, float64(t2.Sub(t1).Nanoseconds())/1e3)
		}
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("kecss_cache_hits_total"), delta("kecss_cache_misses_total")
	_, late, _ := tail(st.late)
	r.add("wire.decode_us", median(decodeUS), "us")
	r.add("wire.digest_us", median(digestUS), "us")
	r.add("server.journal_accept_ms", att.mean("journal.accept"), "ms")
	r.add("journal.syncs_per_job", delta("kecss_journal_syncs_total")/delta("kecss_jobs_enqueued_total"), "count")
	r.add("queue.wait_ms", att.mean("queue.wait"), "ms")
	r.add("queue.claim_self_ms", att.mean("claim.self"), "ms")
	r.add("store.put_ms", att.mean("store.put"), "ms")
	r.add("store.get_us", 1e3*att.mean("store.get"), "us")
	r.add("cache.hit_ratio", hits/(hits+misses), "ratio")
	r.add("server.admission_ms", att.mean("admission"), "ms")
	r.add("server.enqueue_ms", att.mean("enqueue"), "ms")
	r.add("server.solve_ms", att.mean("solve"), "ms")
	r.add("server.other_ms", att.mean("other"), "ms")
	r.add("server.coverage_pct", 100*(1-att.total["other"]/att.total["client"]), "%")
	r.add("server.send_late_ms", late, "ms")
	r.notef("%d miss traces; client-seen miss latency %.3f ms mean", att.jobs, att.mean("client"))
	r.notef("queue.retries %.0f, queue.lease_expirations %.0f (both expected 0)",
		delta("kecss_retries_total"), delta("kecss_lease_expirations_total"))
	return r, nil
}

// scrape reads the counters of /metrics (unlabelled samples only).
func (f *serveFixture) scrape() (map[string]float64, error) {
	resp, err := f.client.Get(f.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func (f *serveFixture) trace(job string) (*telemetry.Data, error) {
	resp, err := f.client.Get(f.ts.URL + "/v1/jobs/" + job + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace of job %s: status %d", job, resp.StatusCode)
	}
	var d telemetry.Data
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, fmt.Errorf("trace of job %s: %w", job, err)
	}
	return &d, nil
}

// spanAttribution sums, over miss jobs, the self time of each named span
// of the job's trace and the client-seen latency; "other" is the latency
// the named spans leave unexplained (transport, handler, response).
type spanAttribution struct {
	jobs  int
	total map[string]float64 // ms summed over jobs
}

func (a *spanAttribution) add(d *telemetry.Data, client time.Duration) {
	if a.total == nil {
		a.total = map[string]float64{}
	}
	dur := func(s *telemetry.Span) float64 { return float64(s.DurationNanos()) / 1e6 }
	var named float64
	claimStart := int64(math.MaxInt64)
	for i := range d.Spans {
		if d.Spans[i].Name == "claim" {
			claimStart = min(claimStart, d.Spans[i].Start)
		}
	}
	part := map[string]float64{}
	for i := range d.Spans {
		s := &d.Spans[i]
		switch s.Name {
		case "admission", "journal.accept", "enqueue", "store.get", "store.put", "solve":
			part[s.Name] += dur(s)
		case "queue.wait":
			// An agent may claim before the wait span opens; only the part
			// before the first claim is waiting.
			part[s.Name] += float64(max(0, min(s.End, claimStart)-s.Start)) / 1e6
		case "claim":
			var kids []interval
			for j := range d.Spans {
				if c := &d.Spans[j]; c.Parent == s.ID {
					kids = append(kids, interval{c.Start, c.End})
				}
			}
			part["claim.self"] += float64(remainder(s.Start, s.End, kids)) / 1e6
		}
	}
	for k, v := range part {
		a.total[k] += v
		named += v
	}
	c := ms(client)
	a.total["client"] += c
	a.total["other"] += max(0, c-named)
	a.jobs++
}

func (a *spanAttribution) mean(name string) float64 { return a.total[name] / float64(a.jobs) }
