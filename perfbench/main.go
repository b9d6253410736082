// Command perfbench is the repository's benchmark. One process runs one
// workload, checks every output, and prints its metrics by name with their
// units; the last line of standard output is a JSON summary.
//
//	go run . --workload solve3-large --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	solve3-large  sequential Solve3ECSSUnweighted on RandomKConnected(1500, 3, 3000)
//	sweep-mixed   kecss.Pool sweeps of K=4 Aug_k and simulated-MST 2-ECSS tasks
//	serve-mixed   open-loop POST /v1/solve against an in-process fused server
//	all           the three above in turn (untraced only)
//
// --trace 0 measures the end-to-end metrics of the named workload with no
// tracing. --trace 1 is the separate traced run: it runs a traced pass of
// every workload and reports the per-layer metrics, each measured on the
// workload whose layers it attributes, so every traced run carries every
// layer metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	kecss "repro"
)

// declared is a metric of BENCHMARK.json: its name and unit.
type declared struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed for every workload.
var endToEnd = []declared{
	{"setup_s", "s"},
	{"solves_per_s", "1/s"},
	{"solve_p50_ms", "ms"},
	{"solution_weight", "weight"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Each comes from the traced pass
// of one workload (README.md lists which, and what it should move).
var perLayer = []declared{
	// solve3-large: solver phases, counts, remainder and coverage, graph checks.
	{"core.validate_ms", "ms"},
	{"core.base_ms", "ms"},
	{"core.base-label_ms", "ms"},
	{"core.augment_ms", "ms"},
	{"core.correction_ms", "ms"},
	{"core.other_ms", "ms"},
	{"core.coverage_pct", "%"},
	{"core.augment_iterations", "count"},
	{"core.augment_edges", "count"},
	{"core.rounds", "count"},
	{"core.messages", "count"},
	{"core.trace_overhead_ratio", "ratio"},
	{"graph.edge_connectivity_ms", "ms"},
	{"graph.cut_pairs_ms", "ms"},
	// sweep-mixed: Karger–Stein, Aug_k, 2-ECSS phases, simulator, pool.
	{"core.cut-enum_ms", "ms"},
	{"core.ks-sweep_ms", "ms"},
	{"core.ks-materialise_ms", "ms"},
	{"core.mst_ms", "ms"},
	{"core.tap_ms", "ms"},
	{"core.audit_ms", "ms"},
	{"core.cut-enum_cuts", "count"},
	{"core.ks-sweep_steps", "count"},
	{"sweep.core.augment_ms", "ms"},
	{"sweep.core.other_ms", "ms"},
	{"sweep.core.coverage_pct", "%"},
	{"sweep.core.rounds", "count"},
	{"sweep.core.messages", "count"},
	{"sweep.trace_overhead_ratio", "ratio"},
	{"sweep.graph.edge_connectivity_ms", "ms"},
	{"congest.round_us", "us"},
	{"congest.messages_per_round", "count"},
	{"pool.busy_ratio", "ratio"},
	// serve-mixed: wire, journal, queue, store, server spans and counters.
	{"wire.decode_us", "us"},
	{"wire.digest_us", "us"},
	{"server.journal_accept_ms", "ms"},
	{"journal.syncs_per_job", "count"},
	{"queue.wait_ms", "ms"},
	{"queue.claim_self_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"server.admission_ms", "ms"},
	{"server.enqueue_ms", "ms"},
	{"server.solve_ms", "ms"},
	{"server.other_ms", "ms"},
	{"server.coverage_pct", "%"},
	{"server.send_late_ms", "ms"},
}

// env is what every workload pass is given: the workload seed (the only
// source of its inputs), how long to measure, how many workers and
// connections it may use, and where it may write files.
type env struct {
	seed    int64
	budget  time.Duration
	workers int
	tmpdir  string
}

// report is one workload pass's outcome: what it attempted, what failed
// (solve errors, failed audits, bad responses, digest mismatches), the
// folded output digest, and its metrics in print order.
type report struct {
	workload  string
	attempted int
	failed    int
	digest    string
	metrics   []metric
	notes     []string
	// alias maps a declared end-to-end name onto the workload's own metric
	// that plays its part (serve-mixed has no plain solve loop).
	alias map[string]string
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.workload, fmt.Sprintf(format, args...))
}

func (r *report) lookup(name string) (metric, bool) {
	if a, ok := r.alias[name]; ok {
		name = a
	}
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

type pass func(env) (*report, error)

var workloads = []struct {
	name   string
	run    pass // untraced: end-to-end metrics
	traced pass // traced: the per-layer metrics of the layers it exercises
}{
	{"solve3-large", runSolve3, traceSolve3},
	{"sweep-mixed", runSweep, traceSweep},
	{"serve-mixed", runServe, traceServe},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "solve3-large | sweep-mixed | serve-mixed | all")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 30, "how long one run measures")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, untraced; 1 = per-layer metrics from traced passes")
	tmpdir := flag.String("tmpdir", "", "directory for the serving workload's journal and store (default: the OS temp dir)")
	flag.Parse()

	e := env{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), workers: runtime.NumCPU(), tmpdir: *tmpdir}
	if e.budget <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	known := *workload == "all"
	for _, w := range workloads {
		known = known || *workload == w.name
	}
	if !known {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *workload)
		return 2
	}
	if *trace == 1 && *workload == "all" {
		fmt.Fprintln(os.Stderr, "perfbench: --trace 1 already covers every workload; name one")
		return 2
	}
	var passes []pass
	for _, w := range workloads {
		switch {
		case *trace == 1:
			passes = append(passes, w.traced)
		case *workload == w.name || *workload == "all":
			passes = append(passes, w.run)
		}
	}
	if *trace == 1 {
		e.budget /= time.Duration(len(workloads))
	}

	var reports []*report
	for _, p := range passes {
		r, err := p(e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		reports = append(reports, r)
	}
	rss := peakRSSMB()
	mode := "untraced"
	if *trace == 1 {
		mode = "traced"
	}
	for _, r := range reports {
		if *trace == 0 {
			r.add("peak_rss_mb", rss, "MB")
		}
		printReport(r, *seed, mode)
	}

	declared := endToEnd
	if *trace == 1 {
		declared = perLayer
	}
	sum, err := summarize(reports, declared, *workload == "all")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// summarize builds the final JSON line from the declared metric names. With
// prefixed set (--workload all) every workload's end-to-end metrics appear
// as "<workload>/<name>"; otherwise each declared name must come from
// exactly one of the reports.
func summarize(reports []*report, metrics []declared, prefixed bool) (summary, error) {
	s := summary{Metrics: make(map[string]jsonMetric)}
	for _, r := range reports {
		s.Attempted += r.attempted
		s.Failed += r.failed
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	for _, d := range metrics {
		name := d.name
		found := 0
		for _, r := range reports {
			m, ok := r.lookup(name)
			if !ok {
				continue
			}
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				return s, fmt.Errorf("%s: metric %s was not measured", r.workload, name)
			}
			if m.unit != d.unit {
				return s, fmt.Errorf("%s: metric %s in %s, declared in %s", r.workload, name, m.unit, d.unit)
			}
			key := name
			if prefixed {
				key = r.workload + "/" + name
			}
			s.Metrics[key] = jsonMetric{m.value, m.unit}
			found++
		}
		if found == 0 || (!prefixed && found > 1) {
			return s, fmt.Errorf("metric %s reported by %d passes, want exactly one", name, found)
		}
	}
	return s, nil
}

func printReport(r *report, seed int64, mode string) {
	fmt.Printf("== %s (seed %d, %s) ==\n", r.workload, seed, mode)
	width := 0
	for _, m := range r.metrics {
		width = max(width, len(m.name))
	}
	for _, m := range r.metrics {
		fmt.Printf("%-13s %-*s %14.4f %s\n", r.workload, width, m.name, m.value, m.unit)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-13s %-*s %14.4f ratio (%d of %d failed)\n", r.workload, width, "fail_ratio", ratio, r.failed, r.attempted)
	fmt.Printf("%-13s %-*s %s\n", r.workload, width, "output_digest", r.digest)
	for _, n := range r.notes {
		fmt.Printf("%-13s note: %s\n", r.workload, n)
	}
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// medianSetup runs setup n times and returns the median wall time, keeping
// the last instance and releasing the others.
func medianSetup[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var kept T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			if i > 0 && release != nil {
				release(kept)
			}
			var zero T
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 && release != nil {
			release(kept)
		}
		kept = v
	}
	return kept, median(secs), nil
}

// phaseLog is a PhaseObserver that keeps every event of one solve.
type phaseLog struct{ evs []kecss.PhaseEvent }

func (l *phaseLog) observe(ev kecss.PhaseEvent) { l.evs = append(l.evs, ev) }

// phaseBreakdown accumulates PhaseEvents over many solves: per-phase time,
// the uncovered remainder of each solve's wall window, and event counters.
type phaseBreakdown struct {
	solves  int
	wallNS  int64
	otherNS int64
	byPhase map[string]int64
	items   map[string]int64
	iters   map[string]int64
	msgs    int64
	rounds  int64
}

func newPhaseBreakdown() *phaseBreakdown {
	return &phaseBreakdown{byPhase: map[string]int64{}, items: map[string]int64{}, iters: map[string]int64{}}
}

// addSolve records one solve that ran over [from, to) and emitted evs.
func (b *phaseBreakdown) addSolve(from, to time.Time, evs []kecss.PhaseEvent, rounds int64) {
	ivs := make([]interval, 0, len(evs))
	for _, ev := range evs {
		s := int64(ev.Start.Sub(from))
		ivs = append(ivs, interval{s, s + int64(ev.Duration)})
		b.byPhase[ev.Phase] += int64(ev.Duration)
		b.items[ev.Phase] += int64(ev.Items)
		b.iters[ev.Phase] += int64(ev.Iterations)
		b.msgs += ev.Messages
	}
	b.solves++
	b.wallNS += int64(to.Sub(from))
	b.otherNS += remainder(0, int64(to.Sub(from)), ivs)
	b.rounds += rounds
}

// perSolveMS is the mean time per solve spent in phase, in ms.
func (b *phaseBreakdown) perSolveMS(phase string) float64 {
	return float64(b.byPhase[phase]) / float64(b.solves) / 1e6
}

func (b *phaseBreakdown) otherMS() float64 { return float64(b.otherNS) / float64(b.solves) / 1e6 }

// coveragePct is the share of solve wall time that named phases explain.
func (b *phaseBreakdown) coveragePct() float64 {
	return 100 * (1 - float64(b.otherNS)/float64(b.wallNS))
}

func (b *phaseBreakdown) perSolve(total int64) float64 { return float64(total) / float64(b.solves) }

// notePhases lists every phase seen, with its share of solve wall time.
func (b *phaseBreakdown) notePhases(r *report) {
	names := make([]string, 0, len(b.byPhase))
	for n := range b.byPhase {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", n, 100*float64(b.byPhase[n])/float64(b.wallNS)))
	}
	r.notef("phase share of %d solves (%.1f ms mean wall; nested phases overlap their parent): %s; other %.1f%%",
		b.solves, float64(b.wallNS)/float64(b.solves)/1e6, strings.Join(parts, ", "), 100*float64(b.otherNS)/float64(b.wallNS))
}

var errNoSolves = errors.New("no solve completed within the run")
