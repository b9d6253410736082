// Command kecss-bench regenerates every reproduction experiment E1–E14 and
// the ablations A1–A3 (see the README's CLI section; each experiment is
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
	var ids []string
	if only != "" {
		ids = strings.Split(only, ",")
	}
	exps, err := experiments.Select(ids...)
	if err != nil {
		return err
	}
	scale := experiments.Scale{Quick: quick, Workers: workers}
	for _, e := range exps {
		tbl, err := e.Run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		tbl.Fprint(os.Stdout)
	}
	return nil
}
