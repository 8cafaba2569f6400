// Command gfbench regenerates the paper's tables and figures (as
// indexed in DESIGN.md §5) on the simulated substrate and prints them
// as text tables.
//
// Usage:
//
//	gfbench                 # run every experiment (E1..E13, A1..A5)
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
		expFlag = flag.String("exp", "", "comma-separated experiment IDs (empty = all)")
		quick   = flag.Bool("quick", false, "shorter horizons")
		seed    = flag.Int64("seed", 42, "deterministic seed")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

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
