// Command gfflight inspects flight-recorder dumps (flight.json files
// written by gfsim/gfdist/gfsoak on audit violations, panics, soak
// failures, or operator triggers).
//
// Usage:
//
//	gfflight flight.json                    # human-readable summary
//	gfflight -q flight.json                 # validate only (CI smoke)
//	gfflight -chrome trace.json flight.json # spans -> Perfetto trace
//
// Exits 1 if the dump is missing or unparseable, so CI can assert
// "a forced failure produced a parseable flight.json" with -q.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs/flight"
	"repro/internal/obs/span"
)

func main() {
	var (
		quiet  = flag.Bool("q", false, "validate the dump and exit; no output on success")
		chrome = flag.String("chrome", "", "write the dump's spans as Chrome trace_event JSON to this file (open in Perfetto)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gfflight [-q] [-chrome OUT.json] FLIGHT.json")
		os.Exit(2)
	}
	path := flag.Arg(0)

	d, err := flight.ReadDump(path)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		summarize(path, d)
	}
	if *chrome != "" {
		if err := writeChrome(d, *chrome); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Printf("spans written to %s\n", *chrome)
		}
	}
}

func summarize(path string, d *flight.Dump) {
	fmt.Printf("dump       : %s\n", path)
	fmt.Printf("reason     : %s\n", d.Reason)
	if d.Detail != "" {
		fmt.Printf("detail     : %s\n", d.Detail)
	}
	fmt.Printf("written at : %s\n", d.WrittenAt)
	if n := len(d.Rounds); n == 0 {
		fmt.Println("rounds     : none retained")
	} else {
		fmt.Printf("rounds     : %d retained (%d..%d), %d dropped before window\n",
			n, d.Rounds[0].Round, d.Rounds[n-1].Round, d.RoundsDropped)
	}
	for _, r := range d.Rounds {
		events := map[string]int{} // by kind: fault, net, protocol
		for _, e := range r.Events {
			events[e.Kind]++
		}
		fmt.Printf("  round %-5d t=%-10.0f decisions=%-3d trades=%-3d faults=%-2d net=%-2d protocol=%-3d spans=%-3d users=%d\n",
			r.Round, r.SimAt, len(r.Decisions), len(r.Trades),
			events["fault"], events["net"], events["protocol"], len(r.Spans), len(r.Shares))
	}
}

// writeChrome flattens every retained round's spans into one Chrome
// trace_event file; rounds keep distinct trace IDs so Perfetto shows
// them as separate slices on the same process tracks.
func writeChrome(d *flight.Dump, path string) error {
	var spans []span.Span
	for _, r := range d.Rounds {
		spans = append(spans, r.Spans...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = span.WriteChromeTrace(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gfflight:", err)
	os.Exit(1)
}
