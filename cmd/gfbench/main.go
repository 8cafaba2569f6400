// Command gfbench regenerates the paper's tables and figures (as
// indexed in DESIGN.md §5) on the simulated substrate and prints them
// as text tables.
//
// Usage:
//
//	gfbench                 # run every experiment (E1..E12, A1..A3)
//	gfbench -exp E10,E11    # run selected experiments
//	gfbench -quick          # ~5× shorter horizons (wider error bars)
//	gfbench -seed 7         # change the deterministic seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		expFlag   = flag.String("exp", "", "comma-separated experiment IDs (empty = all)")
		quick     = flag.Bool("quick", false, "shorter horizons")
		seed      = flag.Int64("seed", 42, "deterministic seed")
		list      = flag.Bool("list", false, "list experiments and exit")
		ledger    = flag.Bool("ledger", false, "measure the round loop at 1k/10k/100k GPUs (spans off vs on) and print the benchmark ledger")
		ledgerOut = flag.String("ledger-out", "BENCH_core.json", "committed ledger path for -ledger -check/-update")
		check     = flag.Bool("check", false, "with -ledger: gate fresh measurements against the committed ledger; exit 1 on regression")
		update    = flag.Bool("update", false, "with -ledger: rewrite the committed ledger from fresh measurements")
		tol       = flag.Float64("tol", 0.15, "with -ledger -check: tolerated fractional regression")
		allocCap  = flag.Float64("alloc-cap", 0, "with -ledger -check: absolute ceiling on base allocs/round at the largest-GPU row (0 disables)")
	)
	flag.Parse()

	if *ledger {
		if err := ledgerMain(*ledgerOut, *seed, *update, *check, *tol, *allocCap); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-55s (%s)\n", e.ID, e.Title, e.Artifact)
		}
		return
	}

	var todo []experiments.Experiment
	if *expFlag == "" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := experiments.Get(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	opt := experiments.Options{Seed: *seed, Quick: *quick}
	for i, e := range todo {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		tab, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if err := tab.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(%s · regenerates %s · %.1fs)\n", e.ID, e.Artifact, time.Since(start).Seconds())
	}
}
