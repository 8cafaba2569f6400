package obs

import (
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// family is one gf_* metric family of the /metrics exposition: its
// header and the writer of its series, which reads the Observer's
// fields under o.mu.
type family struct {
	name, typ string
	label     string // the label telling the family's series apart; "" for one series
	help      string
	series    func(o *Observer, w writer)
}

// families is the exposition, in name order.
var families = [...]family{
	{"gf_agents_degraded", "gauge", "", "Agents currently unheard-from but still inside their degraded-mode lease.",
		func(o *Observer, w writer) { w.one(o.degraded) }},
	{"gf_build_info", "gauge", "", "Build metadata; value is always 1.",
		func(o *Observer, w writer) { w.sample("", buildInfo, "1") }},
	{"gf_comp_repaid_gpu_seconds_total", "counter", "", "Cumulative failure-compensation repaid, in occupied GPU-seconds.",
		func(o *Observer, w writer) { w.one(o.compRepaid) }},
	{"gf_decisions_total", "counter", "", "Job placement decisions recorded.",
		func(o *Observer, w writer) { w.one(o.decided) }},
	{"gf_epoch", "gauge", "", "Central scheduler epoch; increases across restarts and fences stale protocol traffic.",
		func(o *Observer, w writer) { w.one(o.epoch) }},
	{"gf_faults_injected_total", "counter", "kind", "Injected fault events by kind (server-down, job-crash, migration-fail, quarantine, degrade).",
		func(o *Observer, w writer) { w.each(o.faults) }},
	{"gf_finish_time_fairness_rho", "gauge", "user", "Finish-time fairness ρ per user (Themis): mean JCT over standalone-time × active users; ≤ 1 is fair.",
		func(o *Observer, w writer) { w.each(o.rho) }},
	{"gf_jct_seconds", "gauge", "q", "Job completion time quantiles over finished jobs, in simulated seconds.",
		func(o *Observer, w writer) { w.each(o.jct) }},
	{"gf_jobs_active", "gauge", "", "Admitted, unfinished jobs.",
		func(o *Observer, w writer) { w.one(o.active) }},
	{"gf_jobs_admitted_total", "counter", "", "Jobs admitted into the active set.",
		func(o *Observer, w writer) { w.one(o.admitted) }},
	{"gf_jobs_finished_total", "counter", "", "Jobs that reached completion.",
		func(o *Observer, w writer) { w.one(o.finished) }},
	{"gf_jobs_pending", "gauge", "", "Jobs not yet arrived.",
		func(o *Observer, w writer) { w.one(o.pending) }},
	{"gf_makespan_seconds", "gauge", "", "Simulated time at which the last job finished.",
		func(o *Observer, w writer) { w.one(o.makespan) }},
	{"gf_migrations_total", "counter", "", "Job migrations executed.",
		func(o *Observer, w writer) { w.one(o.migrated) }},
	{"gf_net_corrupted_total", "counter", "", "Messages the network fault injector corrupted in flight.",
		func(o *Observer, w writer) { w.one(o.netCorrupted) }},
	{"gf_net_delayed_total", "counter", "", "Messages the network fault injector delayed one round.",
		func(o *Observer, w writer) { w.one(o.netDelayed) }},
	{"gf_net_dropped_total", "counter", "", "Messages the network fault injector silently dropped.",
		func(o *Observer, w writer) { w.one(o.netDropped) }},
	{"gf_net_duplicated_total", "counter", "", "Messages the network fault injector delivered twice.",
		func(o *Observer, w writer) { w.one(o.netDuplicated) }},
	{"gf_net_oneway_refused_total", "counter", "", "Sends refused by an injected one-way partition.",
		func(o *Observer, w writer) { w.one(o.netOneway) }},
	{"gf_net_partition_refused_total", "counter", "", "Sends refused by an injected full partition.",
		func(o *Observer, w writer) { w.one(o.netPartition) }},
	{"gf_net_reordered_total", "counter", "", "Messages the network fault injector reordered.",
		func(o *Observer, w writer) { w.one(o.netReordered) }},
	{"gf_protocol_events_total", "counter", "event", "Distributed-protocol events by type.",
		func(o *Observer, w writer) { w.each(o.protocol) }},
	{"gf_round_phase_seconds", "histogram", "phase", "Wall-clock time spent in each scheduler phase per round.",
		writePhases},
	{"gf_rounds_total", "counter", "", "Scheduling rounds completed.",
		func(o *Observer, w writer) { w.one(o.rounds) }},
	{"gf_servers_quarantined", "gauge", "", "Servers currently excluded by the quarantine circuit breaker.",
		func(o *Observer, w writer) { w.one(o.quarantined) }},
	{"gf_sim_time_seconds", "gauge", "", "Simulated (virtual) time.",
		func(o *Observer, w writer) { w.one(o.simTime) }},
	{"gf_trades_total", "counter", "", "Resource trades executed.",
		func(o *Observer, w writer) { w.one(o.traded) }},
	{"gf_unplaced_total", "counter", "", "Scheduled jobs fragmentation left unplaced.",
		func(o *Observer, w writer) { w.one(o.unplaced) }},
	{"gf_user_comp_deficit_seconds", "gauge", "user", "Outstanding failure-compensation debt per user, in occupied GPU-seconds.",
		func(o *Observer, w writer) { w.each(o.compDeficit) }},
	{"gf_user_fair_fraction", "gauge", "user", "User's fraction under the water-filled fair reference.",
		func(o *Observer, w writer) {
			for _, s := range o.shares {
				w.sample("", labels(w.f.label, s.User), formatFloat(s.Fair))
			}
		}},
	{"gf_user_usage_fraction", "gauge", "user", "User's fraction of total occupied GPU-seconds so far.",
		func(o *Observer, w writer) {
			for _, s := range o.shares {
				w.sample("", labels(w.f.label, s.User), formatFloat(s.Usage))
			}
		}},
}

// writePhases writes the phase histogram: one series per phase, in
// phase-name order.
func writePhases(o *Observer, w writer) {
	byName := allPhases
	slices.Sort(byName[:])
	for _, p := range byName {
		r, phase := o.row(p), labels(w.f.label, string(p))
		for i, ub := range phaseBuckets {
			w.sample("_bucket", labels(w.f.label, string(p), "le", formatFloat(ub)), strconv.FormatUint(r.counts[i], 10))
		}
		w.sample("_bucket", labels(w.f.label, string(p), "le", "+Inf"), strconv.FormatUint(r.n, 10))
		w.sample("_sum", phase, formatFloat(r.sum))
		w.sample("_count", phase, strconv.FormatUint(r.n, 10))
	}
}

// buildInfo is gf_build_info's label set: the toolchain, and the VCS
// commit the binary was built from ("unknown" when build info is
// absent, e.g. under `go test` before Go stamps test binaries).
var buildInfo = func() string {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return labels("goversion", runtime.Version(), "revision", rev)
}()

// writer renders one family's sample lines.
type writer struct {
	b *strings.Builder
	f *family
}

// sample writes one line: the family's name with suffix, a label set
// rendered by labels (or ""), and the value.
func (w writer) sample(suffix, labels, v string) {
	w.b.WriteString(w.f.name)
	w.b.WriteString(suffix)
	w.b.WriteString(labels)
	w.b.WriteByte(' ')
	w.b.WriteString(v)
	w.b.WriteByte('\n')
}

// one writes an unlabelled family's one series.
func (w writer) one(v float64) { w.sample("", "", formatFloat(v)) }

// each writes a labelled family's series, one per entry of t, in
// label-value order.
func (w writer) each(t map[string]float64) {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.sample("", labels(w.f.label, k), formatFloat(t[k]))
	}
}

// WritePrometheus renders every gf_* family in Prometheus text
// exposition format (version 0.0.4): families in name order, series in
// label-value order, so the output is deterministic for a fixed state.
// A nil Observer writes nothing.
func (o *Observer) WritePrometheus(w io.Writer) error {
	if o == nil {
		return nil
	}
	var b strings.Builder
	o.mu.Lock()
	for i := range families {
		f := &families[i]
		b.WriteString("# HELP " + f.name + " " + f.help + "\n")
		b.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		f.series(o, writer{&b, f})
	}
	o.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// Value reads one counter or gauge series — by family name and, for a
// labelled family, its label value — off the family's exposition; 0
// when absent. It is for tests and harness assertions.
func (o *Observer) Value(name string, labelVals ...string) float64 {
	i, ok := slices.BinarySearchFunc(families[:], name, func(f family, name string) int {
		return strings.Compare(f.name, name)
	})
	if o == nil || !ok || len(labelVals) > 1 {
		return 0
	}
	f := &families[i]
	want := name
	if len(labelVals) == 1 {
		want += labels(f.label, labelVals[0])
	}
	var b strings.Builder
	o.mu.Lock()
	f.series(o, writer{&b, f})
	o.mu.Unlock()
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, want+" "); ok {
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				return x
			}
		}
	}
	return 0
}

// labels renders a label set, {k="v",...}, from its name/value pairs.
func labels(kv ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i] + `="` + labelEscaper.Replace(kv[i+1]) + `"`)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
