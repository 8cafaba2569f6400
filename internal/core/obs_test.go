package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// TestObsDoesNotPerturbDeterminism is the acceptance check: a
// fixed-seed run must be byte-identical whether instrumentation is
// attached or not. It compares the full event trace and every
// user-visible metric.
func TestObsDoesNotPerturbDeterminism(t *testing.T) {
	run := func(o *obs.Observer) *Result {
		var specs = workload.BatchJobs("a", zoo.MustGet("resnet50"), 4, 1, 20)
		specs = append(specs, workload.BatchJobs("b", zoo.MustGet("vae"), 4, 2, 20)...)
		specs = append(specs, workload.BatchJobs("c", zoo.MustGet("lstm"), 3, 1, 20)...)
		specs, _ = workload.AssignIDs(specs)
		cfg := Config{
			Cluster: mixedCluster(),
			Specs:   specs,
			Seed:    7,
			Obs:     o,
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

	plain := run(nil)
	o := obs.New()
	instr := run(o)

	var a, b bytes.Buffer
	if err := plain.Log.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := instr.Log.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("event traces differ between obs-off and obs-on runs")
	}
	if plain.Rounds != instr.Rounds || plain.End != instr.End ||
		plain.Migrations != instr.Migrations || plain.TradeCount != instr.TradeCount {
		t.Errorf("scalars differ: off=%d/%v/%d/%d on=%d/%v/%d/%d",
			plain.Rounds, plain.End, plain.Migrations, plain.TradeCount,
			instr.Rounds, instr.End, instr.Migrations, instr.TradeCount)
	}
	if !reflect.DeepEqual(plain.UsageByUserGen, instr.UsageByUserGen) {
		t.Error("usage accounting differs with obs attached")
	}
	if !reflect.DeepEqual(plain.ThroughputByUser, instr.ThroughputByUser) {
		t.Error("throughput differs with obs attached")
	}
	if !reflect.DeepEqual(plain.JCTs(), instr.JCTs()) {
		t.Error("JCTs differ with obs attached")
	}

	// And the instrumented run actually observed things.
	if plain.PhaseTotalsSeconds != nil {
		t.Error("uninstrumented run reported phase totals")
	}
	if instr.PhaseTotalsSeconds == nil || instr.PhaseTotalsSeconds[string(obs.PhaseExecute)] <= 0 {
		t.Errorf("instrumented run missing phase totals: %v", instr.PhaseTotalsSeconds)
	}
	snap := o.Snapshot()
	if int(snap.Rounds) != instr.Rounds {
		t.Errorf("observer rounds %v != result rounds %d", snap.Rounds, instr.Rounds)
	}
	if len(snap.Decisions) == 0 {
		t.Error("no decisions recorded")
	}
	seenCredit := false
	for _, d := range snap.Decisions {
		if d.Reason == "credit" {
			seenCredit = true
		}
		if d.Gen == "" || d.User == "" || len(d.Devices) == 0 {
			t.Errorf("incomplete decision: %+v", d)
		}
	}
	if !seenCredit {
		t.Error("no credit-funded decision explained")
	}
	if instr.TradeCount > 0 && len(snap.Trades) == 0 {
		t.Error("trades happened but none recorded")
	}
}

// TestObsMigrationExplained checks migrations surface in the
// decision ring with their origin generation.
func TestObsMigrationExplained(t *testing.T) {
	o := obs.New()
	specs := workload.BatchJobs("fast", zoo.MustGet("resnet50"), 6, 1, 30)
	specs = append(specs, workload.BatchJobs("slow", zoo.MustGet("vae"), 6, 1, 30)...)
	specs, _ = workload.AssignIDs(specs)
	cfg := Config{Cluster: mixedCluster(), Specs: specs, Seed: 3, Obs: o}
	res := runFair(t, cfg, FairConfig{EnableTrading: true}, simclock.Time(48*simclock.Hour))
	if res.Migrations == 0 {
		t.Fatal("scenario produced no migrations")
	}
	found := false
	for _, d := range o.Snapshot().Decisions {
		if d.Migrated && d.FromGen != "" && d.FromGen != d.Gen {
			found = true
			break
		}
	}
	if !found {
		t.Error("no migration decision carries its origin generation")
	}
}

func TestTraceCapBoundsSimLog(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("vae"), 8, 1, 10)
	specs, _ = workload.AssignIDs(specs)
	cfg := Config{Cluster: k80Cluster(1, 4), Specs: specs, Seed: 1, TraceCap: 5}
	res := runFair(t, cfg, FairConfig{}, simclock.Time(48*simclock.Hour))
	if res.Log.Len() != 5 {
		t.Errorf("log length = %d, want capped at 5", res.Log.Len())
	}
	if res.Log.Dropped() == 0 {
		t.Error("cap dropped nothing on a run with > 5 events")
	}
	// The kept events are the newest: the last one must be a finish
	// at the end of the run.
	evs := res.Log.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Errorf("ring order broken: %v after %v", evs[i].At, evs[i-1].At)
		}
	}

	if _, err := New(Config{Cluster: k80Cluster(1, 4), Specs: specs, TraceCap: -1},
		MustNewFairPolicy(FairConfig{})); err == nil {
		t.Error("negative TraceCap accepted")
	}
}
