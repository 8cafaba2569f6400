package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Dist summarizes a sample with the quantiles the sweep reports.
type Dist struct {
	N                             int
	Mean, P50, P95, P99, Min, Max float64
}

// DistOf computes a Dist over xs (not modified). Empty input returns
// the zero Dist.
func DistOf(xs []float64) Dist {
	s := metrics.Summarize(xs)
	return Dist{N: s.N, Mean: s.Mean, P50: s.Median, P95: s.P95, P99: s.P99, Min: s.Min, Max: s.Max}
}

// GroupSummary aggregates every successful run of one group (usually:
// one policy across seeds).
type GroupSummary struct {
	Group  string
	Runs   int // successful runs
	Errors int // failed runs (config, engine, audit, panic)

	// JCT pools every finished job's completion time across the
	// group's runs, in seconds.
	JCT Dist

	// FinishedJobs, MaxShareError, Utilization, Migrations and Trades
	// are distributions of per-run scalars across seeds.
	FinishedJobs  Dist
	MaxShareError Dist
	Utilization   Dist
	Migrations    Dist
	Trades        Dist

	// RhoMax distributes each run's worst-user finish-time fairness ρ
	// (Themis: JCT over an ideal 1/n-cluster run; 1.0 is perfectly
	// fair, higher is worse) across seeds. Makespan distributes each
	// run's last-finish time in seconds. Runs where no job finished
	// contribute zeros.
	RhoMax   Dist
	Makespan Dist

	// AuditViolations totals invariant violations across runs (always
	// zero under strict audit, which fails the run instead). Audited
	// counts the runs that produced an audit report at all, so "no
	// violations" can be told apart from "auditing was off".
	AuditViolations int
	Audited         int

	// PhaseMsPerRound distributes each scheduler phase's wall-clock
	// cost in milliseconds per round across the group's instrumented
	// runs (Options.Profile or an explicit Config.Obs). Nil when no run
	// carried an observer.
	PhaseMsPerRound map[string]Dist
}

// Summary is the aggregate of a whole sweep, one entry per group in
// first-appearance order.
type Summary struct {
	Groups []GroupSummary
}

// Summarize aggregates raw sweep results by group.
func Summarize(results []RunResult) *Summary {
	type acc struct {
		g                                       GroupSummary
		jcts, fin, shareErr, util, migs, trades []float64
		rhoMax, makespan                        []float64
		phases                                  map[string][]float64
	}
	var order []string
	accs := make(map[string]*acc)
	for _, r := range results {
		a := accs[r.Group]
		if a == nil {
			a = &acc{g: GroupSummary{Group: r.Group}}
			accs[r.Group] = a
			order = append(order, r.Group)
		}
		if r.Err != nil {
			a.g.Errors++
			continue
		}
		res := r.Result
		a.g.Runs++
		a.jcts = append(a.jcts, res.JCTs()...)
		a.fin = append(a.fin, float64(len(res.Finished)))
		a.shareErr = append(a.shareErr, res.MaxShareError())
		a.util = append(a.util, res.Utilization.Fraction())
		a.migs = append(a.migs, float64(res.Migrations))
		a.trades = append(a.trades, float64(res.TradeCount))
		a.rhoMax = append(a.rhoMax, res.SLO.RhoMax)
		a.makespan = append(a.makespan, res.SLO.MakespanSeconds)
		if res.Audit != nil {
			a.g.Audited++
			a.g.AuditViolations += res.Audit.Total()
		}
		if res.PhaseTotalsSeconds != nil && res.Rounds > 0 {
			if a.phases == nil {
				a.phases = make(map[string][]float64)
			}
			for p, tot := range res.PhaseTotalsSeconds {
				a.phases[p] = append(a.phases[p], 1e3*tot/float64(res.Rounds))
			}
		}
	}
	s := &Summary{}
	for _, name := range order {
		a := accs[name]
		a.g.JCT = DistOf(a.jcts)
		a.g.FinishedJobs = DistOf(a.fin)
		a.g.MaxShareError = DistOf(a.shareErr)
		a.g.Utilization = DistOf(a.util)
		a.g.Migrations = DistOf(a.migs)
		a.g.Trades = DistOf(a.trades)
		a.g.RhoMax = DistOf(a.rhoMax)
		a.g.Makespan = DistOf(a.makespan)
		if a.phases != nil {
			a.g.PhaseMsPerRound = make(map[string]Dist, len(a.phases))
			for p, xs := range a.phases {
				a.g.PhaseMsPerRound[p] = DistOf(xs)
			}
		}
		s.Groups = append(s.Groups, a.g)
	}
	return s
}

// phaseCols lists the phases any group actually timed, in canonical
// phase order, so the table only widens when profiling is on.
func (s *Summary) phaseCols() []string {
	seen := make(map[string]bool)
	for _, g := range s.Groups {
		for p := range g.PhaseMsPerRound {
			seen[p] = true
		}
	}
	var out []string
	for _, p := range obs.AllPhases {
		if seen[string(p)] {
			out = append(out, string(p))
		}
	}
	return out
}

// Render writes the summary as an aligned text table, one row per
// group. JCT statistics are in hours. Profiled sweeps grow one extra
// "<phase> ms" column per observed scheduler phase (mean wall-clock
// milliseconds per round).
func (s *Summary) Render(w io.Writer) error {
	cols := []string{"group", "runs", "errs", "finished", "JCT mean h", "JCT p50 h", "JCT p99 h", "rho max", "makespan h", "share err", "util", "audit"}
	phases := s.phaseCols()
	for _, p := range phases {
		cols = append(cols, p+" ms")
	}
	rows := [][]string{cols}
	for _, g := range s.Groups {
		audit := "clean"
		switch {
		case g.AuditViolations > 0:
			audit = fmt.Sprintf("%d VIOL", g.AuditViolations)
		case g.Audited == 0:
			audit = "-"
		}
		row := []string{
			g.Group,
			fmt.Sprint(g.Runs),
			fmt.Sprint(g.Errors),
			fmt.Sprintf("%.1f", g.FinishedJobs.Mean),
			fmt.Sprintf("%.2f", g.JCT.Mean/3600),
			fmt.Sprintf("%.2f", g.JCT.P50/3600),
			fmt.Sprintf("%.2f", g.JCT.P99/3600),
			fmt.Sprintf("%.2f", g.RhoMax.Mean),
			fmt.Sprintf("%.2f", g.Makespan.Mean/3600),
			fmt.Sprintf("%.1f%%", 100*g.MaxShareError.Mean),
			fmt.Sprintf("%.1f%%", 100*g.Utilization.Mean),
			audit,
		}
		for _, p := range phases {
			d, ok := g.PhaseMsPerRound[p]
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", d.Mean))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(cols))
	for _, row := range rows {
		for i, c := range row {
			if n := len([]rune(c)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		b.WriteString("\n")
	}
	writeRow(rows[0])
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows[1:] {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the summary machine-readably, one row per group.
// Times are seconds (not the table's hours) so downstream analysis
// never re-derives units; ratios are raw fractions. Profiled sweeps
// append one phase_<name>_ms column per observed phase in canonical
// order.
func (s *Summary) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"group", "runs", "errors", "finished_mean",
		"jct_mean_s", "jct_p50_s", "jct_p95_s", "jct_p99_s",
		"rho_max_mean", "rho_max_worst", "makespan_mean_s",
		"share_err_mean", "util_mean",
		"migrations_mean", "trades_mean", "audit_violations",
	}
	phases := s.phaseCols()
	for _, p := range phases {
		header = append(header, "phase_"+p+"_ms")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, g := range s.Groups {
		row := []string{
			g.Group,
			strconv.Itoa(g.Runs),
			strconv.Itoa(g.Errors),
			f(g.FinishedJobs.Mean),
			f(g.JCT.Mean), f(g.JCT.P50), f(g.JCT.P95), f(g.JCT.P99),
			f(g.RhoMax.Mean), f(g.RhoMax.Max), f(g.Makespan.Mean),
			f(g.MaxShareError.Mean), f(g.Utilization.Mean),
			f(g.Migrations.Mean), f(g.Trades.Mean),
			strconv.Itoa(g.AuditViolations),
		}
		for _, p := range phases {
			d, ok := g.PhaseMsPerRound[p]
			if !ok {
				row = append(row, "")
				continue
			}
			row = append(row, f(d.Mean))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
