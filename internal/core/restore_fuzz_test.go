package core

import (
	"encoding/json"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// bigmem is a model too large for a K80's memory: it fits the fixture's
// V100s only, so a checkpoint can name a generation it does not fit.
var bigmem = &job.Perf{Model: "bigmem", RatePerGPU: [gpu.NumGenerations]float64{2, 3, 4, 6},
	ScalingEff: 0.9, MemGBPerGPU: 14, CheckpointMB: 50}

// restoreFuzzConfig is the engine FuzzRestore restores into: two
// generations, a noisy profiler and every probabilistic fault on, under
// the strict auditor. Its Specs are the fixture's workload; Restore
// replaces them with a checkpoint's.
func restoreFuzzConfig() Config {
	specs := append(workload.BatchJobs("a", zoo.MustGet("vae"), 4, 1, 2e4),
		workload.BatchJobs("b", zoo.MustGet("resnext50"), 3, 2, 2e4)...)
	specs = append(specs, workload.BatchJobs("c", bigmem, 2, 2, 2e4)...)
	specs, _ = workload.AssignIDs(specs)
	return Config{
		Cluster: gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 2, GPUsPerSrv: 4}, gpu.Spec{Gen: gpu.V100, Servers: 2, GPUsPerSrv: 2}),
		Specs:   specs, Seed: 9, ProfilerNoise: 0.1, Audit: AuditStrict,
		Faults: &faults.Config{
			ServerMTBFHours: 6, ServerOutageMeanHours: 0.5,
			FlakyServers: 1, FlakyMTBFHours: 1, QuarantineFailures: 2, QuarantineWindowHours: 2, QuarantineCooloffHours: 1,
			MigrationFailProb: 0.3, JobCrashMTBFHours: 4, DegradeMTBFHours: 6, DegradeFactor: 0.7,
		},
	}
}

// restoreAndStep restores cp into cfg's engine with a fresh trading
// policy and a noisy profiler, materializes the fault schedule as Run
// would, and runs three rounds. A nil engine comes back with Restore's
// error; an engine, with the first round's error, if any.
func restoreAndStep(cfg Config, cp *Checkpoint) (*Sim, error) {
	s, err := Restore(cfg, MustNewFairPolicy(FairConfig{EnableTrading: true}), LocalExecutor{},
		profiler.MustNew(cfg.ProfilerNoise, cfg.Seed), cp)
	if err != nil {
		return s, err
	}
	until := cp.Now.Add(simclock.Day)
	if err := s.materializeFaults(until); err != nil {
		return s, err
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Step(until); err != nil {
			return s, err
		}
	}
	return s, nil
}

// FuzzRestore feeds checkpoint files to Restore: JSON bytes →
// Checkpoint → Restore with a noisy profiler and faults on → three
// rounds under the strict auditor. Each input must come back as an
// error and no engine, or as an engine that runs its rounds clean and
// whose own checkpoint restores again; none may panic. Checkpoints of
// more than 4096 jobs are skipped — the target hunts for crashes, not
// for allocation limits. A late clock is fair game: the share timeline
// starts at the restored engine's first round.
//
// Run with: go test -run '^$' -fuzz FuzzRestore -fuzztime 60s -parallel 2 ./internal/core
func FuzzRestore(f *testing.F) {
	cfg := restoreFuzzConfig()
	s, err := New(cfg, MustNewFairPolicy(FairConfig{EnableTrading: true}))
	if err != nil {
		f.Fatal(err)
	}
	if err := s.materializeFaults(simclock.Time(simclock.Day)); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Step(simclock.Time(simclock.Day)); err != nil {
			f.Fatal(err)
		}
	}
	real, err := json.Marshal(s.Checkpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	// Rows for what Restore once read without a check; each must be
	// refused. In the fixture's round-30 checkpoint jobs 1 (vae, gang 1),
	// 5 (resnext50, gang 2) and 8 (bigmem, gang 2) are active; devices
	// 0–7 are K80s, 8–11 V100s.
	for i, spoil := range []func(cp *Checkpoint){
		func(cp *Checkpoint) { cp.Busy[gpu.K80] = -1 },
		func(cp *Checkpoint) { cp.Capacity[gpu.V100] = -3600 },
		func(cp *Checkpoint) { cp.Migrations = -1 },
		func(cp *Checkpoint) { cp.Trades = -2 },
		func(cp *Checkpoint) { cp.Prev[1] = []gpu.DeviceID{0, 1} },               // more devices than its gang
		func(cp *Checkpoint) { cp.Prev[5] = []gpu.DeviceID{9} },                  // fewer
		func(cp *Checkpoint) { cp.Prev[5] = []gpu.DeviceID{8, 8} },               // one device twice
		func(cp *Checkpoint) { cp.Prev[5] = []gpu.DeviceID{7, 8} },               // spanning K80 and V100
		func(cp *Checkpoint) { cp.Prev[8] = []gpu.DeviceID{2, 3} },               // on K80s bigmem does not fit
		func(cp *Checkpoint) { cp.Prev[8] = []gpu.DeviceID{10, 1 << 20} },        // on a device the cluster lacks
		func(cp *Checkpoint) { cp.Now = 1e9 },                                    // a clock 30 rounds do not reach
		func(cp *Checkpoint) { cp.Rounds = 1<<31 - 2 },                           // a round count the backoff pin overflows
		func(cp *Checkpoint) { cp.Tickets["a"], cp.Tickets["b"] = 1e308, 1e308 }, // tickets whose total overflows
	} {
		var cp Checkpoint
		if err := json.Unmarshal(real, &cp); err != nil {
			f.Fatal(err)
		}
		if cp.Prev == nil {
			cp.Prev = map[job.ID][]gpu.DeviceID{}
		}
		spoil(&cp)
		raw, err := json.Marshal(&cp)
		if err != nil {
			f.Fatal(err)
		}
		if s, err := restoreAndStep(cfg, &cp); s != nil || err == nil {
			f.Fatalf("hostile row %d: engine %v, error %v; want an error and no engine", i, s != nil, err)
		}
		f.Add(raw)
	}
	for _, src := range []string{
		`{}`,
		`{"pending":[{"ID":1,"User":"u","Gang":1,"TotalMB":1}]}`,
		`{"now":-1}`,
	} {
		f.Add([]byte(src))
	}
	// Late clocks: the round-30 checkpoint with every time in it moved on
	// by ten years, and by 1e12 s.
	for _, off := range []simclock.Duration{10 * 365 * simclock.Day, 1e12} {
		var cp Checkpoint
		if err := json.Unmarshal(real, &cp); err != nil {
			f.Fatal(err)
		}
		cp.Now = cp.Now.Add(off)
		for i := range cp.Pending {
			cp.Pending[i].Arrival = cp.Pending[i].Arrival.Add(off)
		}
		for i := range cp.TicketChanges {
			cp.TicketChanges[i].At = cp.TicketChanges[i].At.Add(off)
		}
		for _, jcs := range [][]job.Checkpoint{cp.Active, cp.Done} {
			for i := range jcs {
				jc := &jcs[i]
				jc.Spec.Arrival, jc.Finish = jc.Spec.Arrival.Add(off), jc.Finish.Add(off)
				jc.FirstRun, jc.CkptAt = jc.FirstRun.Add(off), jc.CkptAt.Add(off)
			}
		}
		raw, err := json.Marshal(&cp)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := restoreAndStep(cfg, &cp); err != nil {
			f.Fatalf("the checkpoint %v s on: %v", off, err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil || len(cp.Pending)+len(cp.Active)+len(cp.Done) > 4096 {
			return
		}
		s, err := restoreAndStep(cfg, &cp)
		if s == nil {
			if err == nil {
				t.Fatal("Restore returned no engine and no error")
			}
			return
		}
		if err != nil {
			t.Fatalf("a restored engine: %v", err)
		}
		raw, err := json.Marshal(s.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		var again Checkpoint
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatal(err)
		}
		if s, err := restoreAndStep(cfg, &again); s == nil || err != nil {
			t.Fatalf("a restored engine's own checkpoint: engine %v, error %v", s != nil, err)
		}
	})
}
