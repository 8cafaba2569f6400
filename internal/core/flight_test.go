package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// TestSpansAndFlightDoNotPerturb is the PR's acceptance check: a
// fixed-seed run must be byte-identical whether the FULL
// observability stack — observer, span tracer, flight-recorder sink —
// is attached or not. Tracing and recording are strictly read-only.
func TestSpansAndFlightDoNotPerturb(t *testing.T) {
	run := func(o *obs.Observer, rec *flight.Recorder) *Result {
		var specs = workload.BatchJobs("a", zoo.MustGet("resnet50"), 4, 1, 20)
		specs = append(specs, workload.BatchJobs("b", zoo.MustGet("vae"), 4, 2, 20)...)
		specs = append(specs, workload.BatchJobs("c", zoo.MustGet("lstm"), 3, 1, 20)...)
		specs, _ = workload.AssignIDs(specs)
		cfg := Config{
			Cluster: mixedCluster(),
			Specs:   specs,
			Seed:    7,
			Obs:     o,
			Flight:  rec,
		}
		sim, err := New(cfg, MustNewFairPolicy(FairConfig{EnableTrading: true}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(simclock.Time(48 * simclock.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil, nil)

	o := obs.New()
	tr := span.New("core-test", 0)
	o.SetTracer(tr)
	rec := flight.New(16, filepath.Join(t.TempDir(), "flight.json"))
	instr := run(o, rec)

	var a, b bytes.Buffer
	if err := plain.Log.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := instr.Log.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("event traces differ between plain and spans+flight runs")
	}
	if plain.Rounds != instr.Rounds || plain.End != instr.End ||
		plain.Migrations != instr.Migrations || plain.TradeCount != instr.TradeCount {
		t.Errorf("scalars differ: off=%d/%v/%d/%d on=%d/%v/%d/%d",
			plain.Rounds, plain.End, plain.Migrations, plain.TradeCount,
			instr.Rounds, instr.End, instr.Migrations, instr.TradeCount)
	}
	for _, cmp := range []struct {
		name    string
		off, on any
	}{
		{"usage", plain.UsageByUserGen, instr.UsageByUserGen},
		{"throughput", plain.ThroughputByUser, instr.ThroughputByUser},
		{"JCTs", plain.JCTs(), instr.JCTs()},
		{"fair usage", plain.FairUsageByUser, instr.FairUsageByUser},
		{"SLO", plain.SLO, instr.SLO},
	} {
		if !reflect.DeepEqual(cmp.off, cmp.on) {
			t.Errorf("%s differs with spans+flight attached", cmp.name)
		}
	}

	// The instrumented run really traced and recorded: spans for every
	// round's phases, one flight snapshot per round (modulo the ring
	// cap), and the snapshots carry their rounds' spans.
	if len(tr.Spans()) == 0 {
		t.Fatal("tracer retained no spans")
	}
	rounds := flightWindow(t, rec)
	if len(rounds) == 0 {
		t.Fatal("flight recorder saw no rounds")
	}
	if want := 16; len(rounds) != want && instr.Rounds >= want {
		t.Errorf("flight window = %d rounds, want %d", len(rounds), want)
	}
	last := rounds[len(rounds)-1]
	if last.Round != instr.Rounds {
		t.Errorf("last snapshot round = %d, want %d", last.Round, instr.Rounds)
	}
	if len(last.Spans) == 0 {
		t.Error("final snapshot carries no spans")
	}
	seen := map[string]bool{}
	for _, s := range last.Spans {
		seen[s.Name] = true
	}
	for _, phase := range []string{"round", string(obs.PhaseDecide), string(obs.PhaseExecute)} {
		if !seen[phase] {
			t.Errorf("final snapshot missing %q span; have %v", phase, seen)
		}
	}
}

// TestAuditViolationDumpsFlight pins the audit→flight trigger: a run
// failed by the auditor (here via the synthetic drill) returns an
// AuditError AND leaves a dump whose reason says so.
func TestAuditViolationDumpsFlight(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("vae"), 4, 1, 20)
	specs, _ = workload.AssignIDs(specs)
	path := filepath.Join(t.TempDir(), "flight.json")
	cfg := Config{
		Cluster:         k80Cluster(2, 4),
		Specs:           specs,
		Seed:            1,
		Audit:           AuditStrict,
		AuditDrillRound: 2,
		Obs:             obs.New(),
		Flight:          flight.New(8, path),
	}
	sim, err := New(cfg, MustNewFairPolicy(FairConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(simclock.Time(48 * simclock.Hour))
	if err == nil {
		t.Fatal("drill did not fail the run")
	}
	var av *AuditError
	if !errors.As(err, &av) {
		t.Fatalf("run error %v is not an AuditError", err)
	}
	if av.Violation.Invariant != InvDrill {
		t.Errorf("violation invariant = %q, want %q", av.Violation.Invariant, InvDrill)
	}
	d, err := flight.ReadDump(path)
	if err != nil {
		t.Fatalf("violation left no parseable dump: %v", err)
	}
	if d.Reason != "audit-violation" {
		t.Errorf("dump reason = %q, want audit-violation", d.Reason)
	}
	if n := len(d.Rounds); n == 0 || d.Rounds[n-1].Round != 2 {
		t.Errorf("dump window does not end at the drill round: %d rounds", n)
	}
}

// flightWindow dumps the recorder and reads the window back, as a
// dump's reader sees it.
func flightWindow(t *testing.T, rec *flight.Recorder) []obs.RoundSnapshot {
	t.Helper()
	if err := rec.Dump("manual", ""); err != nil {
		t.Fatal(err)
	}
	d, err := flight.ReadDump(rec.Path())
	if err != nil {
		t.Fatal(err)
	}
	return d.Rounds
}
