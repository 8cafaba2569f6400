package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs/span"
	"repro/internal/trace"
)

// decision is one placement-decision record as the engine writes it.
func decision(id job.ID, user job.UserID, gen gpu.Generation, devs ...gpu.DeviceID) trace.Record {
	return trace.Record{Kind: trace.KindDecision, Job: id, User: user, Gen: gen,
		N: int32(len(devs)), Devs: devs, Name: "policy"}
}

// TestNilObserverIsSafe exercises every instrumentation entry point
// on a nil receiver — the disabled path used by uninstrumented runs.
func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.BeginRound(1, 0)
	o.PhaseStart(PhaseDecide)
	o.PhaseEnd(PhaseDecide)
	o.Emit(trace.Record{Kind: trace.KindProtocol, Name: "plan_sent"})
	o.EndRound(Round{Events: []trace.Record{decision(1, "u", gpu.V100, 0)}})
	var b strings.Builder
	if err := o.WritePrometheus(&b); err != nil || b.Len() != 0 || o.Value("gf_rounds_total") != 0 {
		t.Error("nil observer exposed metrics")
	}
	if o.PhaseTotals() != nil {
		t.Error("nil observer returned phase totals")
	}
	if s := o.Snapshot(); len(s.Decisions) != 0 {
		t.Error("nil observer returned decisions")
	}
}

func TestPhaseProfiling(t *testing.T) {
	o := New()
	// Deterministic fake clock: each call advances 1 ms.
	var tick int64
	o.now = func() time.Time {
		tick++
		return time.Unix(0, tick*int64(time.Millisecond))
	}

	o.BeginRound(1, 360)
	o.PhaseStart(PhaseDecide) // t=1ms
	o.PhaseEnd(PhaseDecide)   // t=2ms → 1ms
	o.PhaseStart(PhaseAudit)  // split span: two 1ms segments
	o.PhaseEnd(PhaseAudit)
	o.PhaseStart(PhaseAudit)
	o.PhaseEnd(PhaseAudit)
	o.EndRound(Round{Active: 4, Pending: 2})

	totals := o.PhaseTotals()
	if d := totals[string(PhaseDecide)]; d < 0.0009 || d > 0.0011 {
		t.Errorf("decide total = %v, want ~1ms", d)
	}
	if d := totals[string(PhaseAudit)]; d < 0.0019 || d > 0.0021 {
		t.Errorf("audit total = %v, want ~2ms (split spans accumulate)", d)
	}
	// One histogram observation per touched phase per round.
	if n := o.row(PhaseAudit).n; n != 1 {
		t.Errorf("audit observations = %d, want 1", n)
	}
	if n := o.row(PhaseExecute).n; n != 0 {
		t.Errorf("untouched phase observed %d times", n)
	}

	snap := o.Snapshot()
	if snap.Round != 1 || snap.SimTimeSeconds != 360 || snap.Rounds != 1 {
		t.Errorf("snapshot header = %+v", snap)
	}
	if snap.LastRound[string(PhaseDecide)] == 0 {
		t.Error("last-round timings missing decide")
	}

	// PhaseEnd without a start is a no-op, not a crash.
	o.PhaseEnd(PhaseTrade)
}

func TestPhaseHistogramsPreRegistered(t *testing.T) {
	o := New()
	out := scrape(t, o)
	for _, p := range AllPhases {
		if !strings.Contains(out, `gf_round_phase_seconds_bucket{phase="`+string(p)+`"`) {
			t.Errorf("phase %s not pre-registered in /metrics output", p)
		}
	}
}

func TestDecisionViewFromRecords(t *testing.T) {
	o := New()
	o.BeginRound(7, 2520)
	migrated := decision(42, "alice", gpu.V100, 4, 5)
	migrated.At, migrated.Name, migrated.X, migrated.Y = 2520, "credit", 3.5, 1.5
	migrated.M, migrated.From = 1, gpu.K80
	o.EndRound(Round{Events: []trace.Record{migrated, decision(43, "bob", gpu.K80, 0)}})

	snap := o.Snapshot()
	if len(snap.Decisions) != 2 {
		t.Fatalf("decisions = %d", len(snap.Decisions))
	}
	d := snap.Decisions[0]
	if d.Round != 7 || d.At != 2520 || d.Job != 42 || d.Gang != 2 || d.Reason != "credit" ||
		d.CreditBefore != 3.5 || d.CreditAfter != 1.5 ||
		!d.Migrated || d.FromGen != "K80" || len(d.Devices) != 2 || d.Devices[1] != 5 {
		t.Errorf("decision = %+v", d)
	}
	if d := snap.Decisions[1]; d.Reason != "policy" || d.Migrated || d.FromGen != "" {
		t.Errorf("unexplained, unmoved decision = %+v", d)
	}

	// Overflow keeps the newest entries, oldest-first, and only those
	// are materialized — but every decision is counted.
	o.BeginRound(8, 2880)
	burst := make([]trace.Record, DefaultRingSize+40)
	for i := range burst {
		burst[i] = decision(job.ID(100+i), "c", gpu.K80, gpu.DeviceID(i))
	}
	o.EndRound(Round{Events: burst})
	snap = o.Snapshot()
	last := snap.Decisions[len(snap.Decisions)-1]
	if len(snap.Decisions) != DefaultRingSize || snap.Decisions[0].Job != 140 ||
		last.Job != int64(100+len(burst)-1) || last.Devices[0] != len(burst)-1 {
		t.Errorf("view overflow wrong: %d decisions, %+v .. %+v", len(snap.Decisions), snap.Decisions[0], last)
	}
	if want := uint64(2 + len(burst)); snap.DecisionsRecorded != want {
		t.Errorf("recorded = %d, want %d", snap.DecisionsRecorded, want)
	}
}

func TestTradeViewAndCounters(t *testing.T) {
	o := New()
	o.BeginRound(3, 1080)
	o.EndRound(Round{
		Events: []trace.Record{
			{At: 1080, Kind: trace.KindTrade, User: "fastuser", Name: "slowuser", Gen: gpu.V100, From: gpu.K80, X: 2, Y: 3.1, Z: 1.55},
			{Kind: trace.KindFinish, Job: 1, User: "fastuser"},
			{Kind: trace.KindUnplaced, N: 2},
		},
		Shares: []ShareSample{{User: "fastuser", Usage: 0.6, Fair: 0.5}},
	})

	snap := o.Snapshot()
	if len(snap.Trades) != 1 || snap.Trades[0].Buyer != "fastuser" || snap.Trades[0].Slow != "K80" ||
		snap.Trades[0].Price != 1.55 || snap.TradesRecorded != 1 {
		t.Errorf("trades = %+v", snap.Trades)
	}
	out := scrape(t, o)
	for _, want := range []string{
		"gf_trades_total 1",
		"gf_jobs_finished_total 1",
		"gf_unplaced_total 2",
		`gf_user_usage_fraction{user="fastuser"} 0.6`,
		`gf_user_fair_fraction{user="fastuser"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if v := o.Value("gf_unplaced_total"); v != 2 {
		t.Errorf("Value(gf_unplaced_total) = %v, want 2", v)
	}
}

// TestEndRoundClosesOpenPhases: a round that fails inside a phase still
// closes it — time accounted, nothing left open for the next round.
func TestEndRoundClosesOpenPhases(t *testing.T) {
	o := New()
	o.BeginRound(1, 0)
	o.PhaseStart(PhaseDecide)
	o.EndRound(Round{})
	if _, ok := o.PhaseTotals()[string(PhaseDecide)]; !ok {
		t.Error("open phase lost at EndRound")
	}
	for i, r := range o.phases {
		if !r.start.IsZero() {
			t.Errorf("phase %s still open after EndRound", allPhases[i])
		}
	}
}

// TestSteadyRoundAllocatesNothing: with no sink attached, an observed
// round — a phase split in two segments, one nested in another —
// allocates nothing, because the round rolls into the phase table in
// place.
func TestSteadyRoundAllocatesNothing(t *testing.T) {
	o := New()
	round := 0
	step := func() {
		round++
		o.BeginRound(round, float64(round))
		o.PhaseStart(PhaseAudit)
		o.PhaseEnd(PhaseAudit)
		o.PhaseStart(PhaseDecide)
		o.PhaseStart(PhaseTrade)
		o.PhaseEnd(PhaseTrade)
		o.PhaseEnd(PhaseDecide)
		o.PhaseStart(PhaseAudit)
		o.PhaseEnd(PhaseAudit)
		o.EndRound(Round{Active: 1})
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("an observed round allocates %v times, want 0", n)
	}
}

// TestPhaseSpansReadTheProfilersClock: the profiler and the tracer share
// one clock reading per phase boundary, so a phase's spans of a round
// last exactly the time the profiler recorded for it — for a phase
// split in two segments, a nested one, and one a failed round left open
// for EndRound to close.
func TestPhaseSpansReadTheProfilersClock(t *testing.T) {
	o := New()
	var tick int64
	o.now = func() time.Time {
		tick++
		return time.Unix(0, tick*int64(time.Millisecond))
	}
	tr := span.New("t", 0)
	o.SetTracer(tr)
	o.BeginRound(1, 0)
	o.PhaseStart(PhaseDecide)
	o.PhaseStart(PhaseTrade)
	o.PhaseEnd(PhaseTrade)
	o.PhaseEnd(PhaseDecide)
	o.PhaseStart(PhaseAudit)
	o.PhaseEnd(PhaseAudit)
	o.PhaseStart(PhaseAudit)
	o.PhaseEnd(PhaseAudit)
	o.PhaseStart(PhaseExecute) // the round fails inside execute
	o.EndRound(Round{})

	spans := map[string]time.Duration{}
	for _, s := range tr.RoundSpans(1) {
		if s.Parent == 0 {
			continue // the round root
		}
		if s.DurNs < 0 {
			t.Errorf("%s span left open", s.Name)
		}
		spans[s.Name] += time.Duration(s.DurNs)
	}
	recorded := o.Snapshot().LastRound
	if len(spans) != 4 || len(recorded) != 4 {
		t.Fatalf("spans %v, recorded %v: want decide, trade, audit and execute in both", spans, recorded)
	}
	for name, d := range spans {
		if secs, ok := recorded[name]; !ok || secs != d.Seconds() {
			t.Errorf("%s: spans last %v, profiler recorded %vs", name, d, secs)
		}
	}
}

// TestConcurrentScrape races instrumentation against exposition —
// the live-server situation. Run under -race in CI.
func TestConcurrentScrape(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o.BeginRound(i, float64(i))
			o.PhaseStart(PhaseExecute)
			o.PhaseEnd(PhaseExecute)
			for _, name := range []string{"drop", "dup", "reorder", "corrupt"} {
				o.Emit(trace.Record{Kind: trace.KindNet, Name: name})
			}
			o.EndRound(Round{Active: 1, Events: []trace.Record{
				decision(job.ID(i), "u", gpu.K80, 0),
				{Kind: trace.KindProtocol, Name: "dup_dropped"},
				{Kind: trace.KindEpoch, N: int32(1 + i%3)},
				{Kind: trace.KindDegraded, N: int32(i % 2)},
			}, Shares: []ShareSample{{User: "u", Usage: 1, Fair: 1}}})
		}
	}()
	var last string
	for i := 0; i < 50; i++ {
		last = scrape(t, o)
		o.Snapshot()
	}
	close(stop)
	wg.Wait()
	// The partition-tolerance metrics are part of the scrape surface.
	for _, want := range []string{
		"gf_net_dropped_total", "gf_net_duplicated_total",
		"gf_net_reordered_total", "gf_net_corrupted_total",
		"gf_epoch", "gf_agents_degraded",
	} {
		if !strings.Contains(last, want) {
			t.Errorf("missing %q in scrape:\n%s", want, last)
		}
	}
}
