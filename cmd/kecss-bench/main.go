// Command kecss-bench regenerates every reproduction experiment E1–E14 and
// the ablations A1–A4 (see the README's CLI section; each experiment is
// documented on its function in internal/experiments) and prints the
// result tables, and runs JSON-described scenario sweeps on the solver pool.
//
// Usage:
//
//	kecss-bench                      # full tables (minutes)
//	kecss-bench -quick               # smallest sizes (seconds)
//	kecss-bench -only E7 -workers 4  # one experiment, 4 sweep workers
//	kecss-bench sweep -scenario scenarios/e11.json           # pooled sweep
//	kecss-bench sweep -scenario scenarios/e11.json -compare  # vs workers=1
//
// Experiment trials and sweep tasks run on a fixed worker pool (-workers,
// default GOMAXPROCS); tables and sweep results are byte-identical at any
// worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		fs := flag.NewFlagSet("sweep", flag.ExitOnError)
		var (
			scenarioPath = fs.String("scenario", "", "JSON scenario file (required)")
			workers      = fs.Int("workers", 0, "pool workers (0 = GOMAXPROCS)")
			compare      = fs.Bool("compare", false, "rerun at workers=1, report speedup and check byte-identical results")
		)
		fs.Parse(os.Args[2:])
		if *scenarioPath == "" {
			fmt.Fprintln(os.Stderr, "kecss-bench sweep: -scenario is required")
			os.Exit(2)
		}
		if err := runSweep(*scenarioPath, *workers, *compare); err != nil {
			fmt.Fprintln(os.Stderr, "kecss-bench sweep:", err)
			os.Exit(1)
		}
		return
	}
	var (
		quick   = flag.Bool("quick", false, "run the reduced-size sweeps")
		only    = flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E7,A1); empty = all")
		workers = flag.Int("workers", 0, "pool workers for experiment trials (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if err := run(*quick, *only, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "kecss-bench:", err)
		os.Exit(1)
	}
}

func run(quick bool, only string, workers int) error {
	scale := experiments.Scale{Quick: quick, Workers: workers}
	want := map[string]bool{}
	if only != "" {
		for _, id := range strings.Split(only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	all := map[string]func(experiments.Scale) (*experiments.Table, error){
		"E1": experiments.E1, "E2": experiments.E2, "E3": experiments.E3,
		"E4": experiments.E4, "E5": experiments.E5, "E6": experiments.E6,
		"E7": experiments.E7, "E8": experiments.E8, "E9": experiments.E9,
		"E10": experiments.E10,
		"E11": experiments.E11,
		"E12": experiments.E12,
		"E13": experiments.E13,
		"E14": experiments.E14,
		"A1":  experiments.AblationVoteThreshold,
		"A2":  experiments.AblationRounding,
		"A3":  experiments.AblationPhaseLength,
		"A4":  experiments.AblationExecutor,
	}
	order := []string{
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
		"E11", "E12", "E13", "E14", "A1", "A2", "A3", "A4",
	}
	for _, id := range order {
		if len(want) > 0 && !want[id] {
			continue
		}
		tbl, err := all[id](scale)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		tbl.Fprint(os.Stdout)
	}
	return nil
}
