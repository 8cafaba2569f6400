package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// TestFuzzEngineInvariants drives many random small scenarios through
// the full engine under every policy and checks global invariants the
// engine must preserve regardless of workload shape:
//
//   - usage never exceeds capacity (per generation);
//   - useful time never exceeds occupied time;
//   - every job either finishes exactly once or remains counted;
//   - finished jobs completed no faster than physics allows
//     (standalone runtime on the fastest generation they fit);
//   - the fairness reference integrates to at most capacity.
func TestFuzzEngineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			var specs []gpu.Spec
			gens := []gpu.Generation{gpu.K80, gpu.P40, gpu.P100, gpu.V100}
			nGens := 1 + rng.Intn(3)
			for i := 0; i < nGens; i++ {
				specs = append(specs, gpu.Spec{
					Gen:        gens[(trial+i)%len(gens)],
					Servers:    1 + rng.Intn(3),
					GPUsPerSrv: 1 + rng.Intn(4),
				})
			}
			cluster := gpu.MustNew(specs...)

			// Gangs must fit within a single generation's capacity or
			// the config is (correctly) rejected.
			maxGang := 0
			for _, g := range cluster.GensPresent() {
				if c := cluster.Capacity(g); c > maxGang {
					maxGang = c
				}
			}
			nUsers := 1 + rng.Intn(4)
			var users []workload.UserSpec
			for i := 0; i < nUsers; i++ {
				users = append(users, workload.UserSpec{
					User:               job.UserID(fmt.Sprintf("u%d", i)),
					NumJobs:            1 + rng.Intn(10),
					ArrivalRatePerHour: float64(rng.Intn(4)),
					MeanK80Hours:       0.5 + rng.Float64()*3,
					GangDist: []workload.GangWeight{
						{Gang: 1, Weight: 0.7},
						{Gang: 1 + rng.Intn(maxGang), Weight: 0.3},
					},
				})
			}
			trace := workload.MustGenerate(workload.DefaultZoo(), workload.Config{
				Seed: int64(trial), Users: users, MaxK80Hours: 6,
			})

			var failures []Failure
			if rng.Intn(2) == 0 && cluster.NumServers() > 1 {
				failures = append(failures, Failure{
					Server:   gpu.ServerID(rng.Intn(cluster.NumServers())),
					At:       simclock.Time(rng.Intn(10) * 3600),
					Duration: simclock.Duration(1+rng.Intn(4)) * simclock.Hour,
				})
			}

			cfg := Config{
				Cluster:          cluster,
				Specs:            trace,
				Seed:             int64(trial),
				Failures:         failures,
				DisableMigration: rng.Intn(4) == 0,
			}
			policies := []Policy{
				MustNewFairPolicy(FairConfig{EnableTrading: trial%2 == 0}),
			}
			for _, p := range policies {
				sim, err := New(cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				horizon := simclock.Time((12 + rng.Intn(36)) * 3600)
				res, err := sim.Run(horizon)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				checkInvariants(t, cfg, res, len(trace))
			}
		})
	}
}

func checkInvariants(t *testing.T, cfg Config, res *Result, totalJobs int) {
	t.Helper()

	// Job conservation.
	if len(res.Finished)+res.Unfinished != totalJobs {
		t.Errorf("job conservation: %d finished + %d unfinished != %d",
			len(res.Finished), res.Unfinished, totalJobs)
	}
	seen := map[job.ID]bool{}
	for _, j := range res.Finished {
		if seen[j.ID] {
			t.Errorf("job %d finished twice", j.ID)
		}
		seen[j.ID] = true
		if !j.Finished() {
			t.Errorf("job %d in Finished but not done", j.ID)
		}
		// Physics: completion at least as slow as the fastest
		// generation allows, minus float slack.
		best := simclock.Duration(1e18)
		for _, g := range gpu.Generations() {
			if j.Perf.FitsOn(g) {
				if r := j.StandaloneTime(g); r < best {
					best = r
				}
			}
		}
		if j.JCT() < best-1 {
			t.Errorf("job %d JCT %v beats physics %v", j.ID, j.JCT(), best)
		}
	}

	// Usage ≤ capacity per generation (both occupied and the
	// engine-tracked busy seconds).
	for g, u := range res.UtilByGen {
		if u.BusyGPUSeconds > u.CapacityGPUSeconds+1e-6 {
			t.Errorf("generation %v: busy %v > capacity %v", g, u.BusyGPUSeconds, u.CapacityGPUSeconds)
		}
	}
	if res.Utilization.Fraction() > 1+1e-9 {
		t.Errorf("utilization %v > 1", res.Utilization.Fraction())
	}

	// Useful ≤ occupied, per user.
	occupied := res.TotalUsageByUser()
	for u, useful := range res.UsefulByUser {
		if useful > occupied[u]+1e-6 {
			t.Errorf("user %s useful %v > occupied %v", u, useful, occupied[u])
		}
	}

	// Fairness reference bounded by capacity.
	var fairTotal float64
	for _, u := range job.SortedUsers(res.FairUsageByUser) {
		fairTotal += res.FairUsageByUser[u]
	}
	capTotal := res.Utilization.CapacityGPUSeconds
	if fairTotal > capTotal*1.01+1e-6 {
		t.Errorf("fair reference %v exceeds capacity %v", fairTotal, capTotal)
	}

	// Migration ban respected.
	if cfg.DisableMigration && res.Migrations != 0 {
		t.Errorf("%d migrations despite DisableMigration", res.Migrations)
	}
}

// TestAuditCorpus drives the strict auditor through handpicked nasty
// scenarios: overlapping failures on the same server, mid-run ticket
// changes down to zero (and back), and their combination. Each run
// must complete without a strict-audit error and report a clean audit.
func TestAuditCorpus(t *testing.T) {
	cluster := func() *gpu.Cluster {
		return gpu.MustNew(
			gpu.Spec{Gen: gpu.K80, Servers: 2, GPUsPerSrv: 4},
			gpu.Spec{Gen: gpu.V100, Servers: 2, GPUsPerSrv: 4},
		)
	}
	trace := func(seed int64) []job.Spec {
		return workload.MustGenerate(workload.DefaultZoo(), workload.Config{
			Seed: seed,
			Users: []workload.UserSpec{
				{User: "a", NumJobs: 8, ArrivalRatePerHour: 2, MeanK80Hours: 2,
					GangDist: []workload.GangWeight{{Gang: 1, Weight: 0.7}, {Gang: 2, Weight: 0.3}}},
				{User: "b", NumJobs: 8, ArrivalRatePerHour: 2, MeanK80Hours: 2,
					GangDist: []workload.GangWeight{{Gang: 1, Weight: 1}}},
			},
			MaxK80Hours: 6,
		})
	}
	cases := []struct {
		name     string
		failures []Failure
		changes  []TicketChange
		faults   *faults.Config
	}{
		{
			name: "overlapping-failures-same-server",
			failures: []Failure{
				{Server: 0, At: simclock.Time(1 * simclock.Hour), Duration: 4 * simclock.Hour},
				{Server: 0, At: simclock.Time(2 * simclock.Hour), Duration: 4 * simclock.Hour},
				{Server: 0, At: simclock.Time(3 * simclock.Hour), Duration: 1 * simclock.Hour},
			},
		},
		{
			name: "tickets-to-zero-and-back",
			changes: []TicketChange{
				{At: simclock.Time(2 * simclock.Hour), User: "a", Tickets: 0},
				{At: simclock.Time(6 * simclock.Hour), User: "a", Tickets: 1},
			},
		},
		{
			name: "all-users-zeroed",
			changes: []TicketChange{
				{At: simclock.Time(3 * simclock.Hour), User: "a", Tickets: 0},
				{At: simclock.Time(3 * simclock.Hour), User: "b", Tickets: 0},
			},
		},
		{
			name: "failures-plus-ticket-churn",
			failures: []Failure{
				{Server: 1, At: simclock.Time(1 * simclock.Hour), Duration: 3 * simclock.Hour},
				{Server: 1, At: simclock.Time(2 * simclock.Hour), Duration: 6 * simclock.Hour},
				{Server: 3, At: simclock.Time(4 * simclock.Hour), Duration: 2 * simclock.Hour},
			},
			changes: []TicketChange{
				{At: simclock.Time(2 * simclock.Hour), User: "b", Tickets: 0},
				{At: simclock.Time(5 * simclock.Hour), User: "b", Tickets: 3},
			},
		},
		{
			name: "probabilistic-full-stack",
			faults: &faults.Config{
				ServerMTBFHours:        6,
				ServerOutageMeanHours:  0.5,
				FlakyServers:           1,
				FlakyMTBFHours:         1,
				DegradeMTBFHours:       8,
				DegradeFactor:          0.6,
				JobCrashMTBFHours:      4,
				MigrationFailProb:      0.4,
				QuarantineFailures:     2,
				QuarantineWindowHours:  2,
				QuarantineCooloffHours: 1,
			},
		},
		{
			name: "flaky-quarantine-storm",
			faults: &faults.Config{
				FlakyServers:           2,
				FlakyMTBFHours:         0.5,
				FlakyOutageMinutes:     8,
				QuarantineFailures:     2,
				QuarantineWindowHours:  2,
				QuarantineCooloffHours: 1,
			},
		},
		{
			// Every migration attempt fails while declared outages
			// force displacement — the backoff/pinning machinery under
			// maximum pressure.
			name: "certain-migration-failure-under-outages",
			failures: []Failure{
				{Server: 0, At: simclock.Time(1 * simclock.Hour), Duration: 2 * simclock.Hour},
				{Server: 2, At: simclock.Time(2 * simclock.Hour), Duration: 3 * simclock.Hour},
			},
			faults: &faults.Config{
				MigrationFailProb: 1,
				JobCrashMTBFHours: 6,
			},
		},
	}
	for _, tc := range cases {
		for _, trading := range []bool{false, true} {
			name := tc.name
			if trading {
				name += "/trading"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{
					Cluster:       cluster(),
					Specs:         trace(7),
					Seed:          7,
					Failures:      tc.failures,
					TicketChanges: tc.changes,
					Faults:        tc.faults,
					Audit:         AuditStrict,
				}
				sim, err := New(cfg, MustNewFairPolicy(FairConfig{EnableTrading: trading}))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(simclock.Time(24 * simclock.Hour))
				if err != nil {
					t.Fatalf("strict audit failed: %v", err)
				}
				if res.Audit == nil || !res.Audit.Clean() {
					t.Fatalf("audit not clean: %s", res.Audit.Summary())
				}
				if res.Audit.Rounds != res.Rounds {
					t.Errorf("audited %d rounds, engine ran %d", res.Audit.Rounds, res.Rounds)
				}
				checkInvariants(t, cfg, res, len(cfg.Specs))
			})
		}
	}
}

// FuzzEngineAudit is a native fuzz target: the fuzzer mutates a
// compact byte recipe into a bounded scenario (cluster shape, jobs,
// overlapping failures, ticket changes to arbitrary values including
// zero, and a probabilistic fault schedule selected bit-by-bit from
// faultBits) and the strict auditor must stay clean on every input.
//
// Run with: go test -fuzz FuzzEngineAudit -fuzztime 30s ./internal/core
func FuzzEngineAudit(f *testing.F) {
	// Seed corpus: bytes are (seed, servers, gpusPerSrv, jobsA, jobsB,
	// failureCount, ticketChangeCount, faultBits, trading). faultBits
	// 0 is the zero fault model, run both as a nil Faults and as
	// &faults.Config{} — the two must give one digest; bits 0..4 enable
	// transient crashes, flaky+quarantine, migration failures, job
	// crashes and degradation respectively.
	f.Add(uint8(1), uint8(2), uint8(4), uint8(6), uint8(6), uint8(2), uint8(2), uint8(0), false)
	f.Add(uint8(7), uint8(1), uint8(2), uint8(3), uint8(0), uint8(0), uint8(1), uint8(0), true)
	f.Add(uint8(42), uint8(3), uint8(1), uint8(8), uint8(8), uint8(4), uint8(3), uint8(0x1f), true)
	f.Add(uint8(99), uint8(2), uint8(3), uint8(1), uint8(12), uint8(3), uint8(0), uint8(0x06), false)
	f.Add(uint8(13), uint8(2), uint8(2), uint8(6), uint8(6), uint8(1), uint8(0), uint8(0x0a), false)
	f.Add(uint8(5), uint8(3), uint8(4), uint8(9), uint8(4), uint8(0), uint8(2), uint8(0x11), true)
	// A crowded 12-GPU cluster under outages, quarantine and failing
	// migrations: jobs sit rounds out and come back to find another job
	// where they were, so the persistent placement settles contested
	// keeps — three of them evict the holder — besides losing servers
	// from under holders and taking failed movers back.
	f.Add(uint8(21), uint8(1), uint8(2), uint8(11), uint8(11), uint8(4), uint8(0), uint8(0x07), true)
	// Two 1-GPU servers, sixteen jobs and one declared outage, no fault
	// model: a job is stranded on the failed server, and its loss is
	// charged whether Faults is nil or the zero config.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(10), uint8(6), uint8(1), uint8(2), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed, servers, gpus, jobsA, jobsB, nFail, nChange, faultBits uint8, trading bool) {
		servers = 1 + servers%3
		gpus = 1 + gpus%4
		jobsA, jobsB = jobsA%12, jobsB%12
		if jobsA == 0 && jobsB == 0 {
			return
		}
		cluster := gpu.MustNew(
			gpu.Spec{Gen: gpu.K80, Servers: int(servers), GPUsPerSrv: int(gpus)},
			gpu.Spec{Gen: gpu.V100, Servers: int(servers), GPUsPerSrv: int(gpus)},
		)
		var users []workload.UserSpec
		gd := []workload.GangWeight{{Gang: 1, Weight: 1}}
		if jobsA > 0 {
			users = append(users, workload.UserSpec{
				User: "a", NumJobs: int(jobsA), ArrivalRatePerHour: 2, MeanK80Hours: 1, GangDist: gd})
		}
		if jobsB > 0 {
			users = append(users, workload.UserSpec{
				User: "b", NumJobs: int(jobsB), ArrivalRatePerHour: 1, MeanK80Hours: 1, GangDist: gd})
		}
		trace := workload.MustGenerate(workload.DefaultZoo(), workload.Config{
			Seed: int64(seed), Users: users, MaxK80Hours: 4,
		})
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		var failures []Failure
		for i := 0; i < int(nFail%5); i++ {
			// Deliberately allowed to overlap on the same server.
			failures = append(failures, Failure{
				Server:   gpu.ServerID(rng.Intn(cluster.NumServers())),
				At:       simclock.Time(rng.Intn(10) * 3600),
				Duration: simclock.Duration(1+rng.Intn(5)) * simclock.Hour,
			})
		}
		var changes []TicketChange
		userIDs := []job.UserID{"a", "b"}
		for i := 0; i < int(nChange%4); i++ {
			changes = append(changes, TicketChange{
				At:      simclock.Time(rng.Intn(12) * 3600),
				User:    userIDs[rng.Intn(2)],
				Tickets: float64(rng.Intn(3)), // 0 is in range on purpose
			})
		}
		var fc *faults.Config
		if faultBits != 0 {
			fc = &faults.Config{}
			if faultBits&0x01 != 0 {
				fc.ServerMTBFHours = 6
				fc.ServerOutageMeanHours = 0.5
			}
			if faultBits&0x02 != 0 {
				fc.FlakyServers = 1
				fc.FlakyMTBFHours = 1
				fc.QuarantineFailures = 2
				fc.QuarantineWindowHours = 2
				fc.QuarantineCooloffHours = 1
			}
			if faultBits&0x04 != 0 {
				fc.MigrationFailProb = 0.5
			}
			if faultBits&0x08 != 0 {
				fc.JobCrashMTBFHours = 4
			}
			if faultBits&0x10 != 0 {
				fc.DegradeMTBFHours = 6
				fc.DegradeFactor = 0.7
			}
		}
		cfg := Config{
			Cluster:       cluster,
			Specs:         trace,
			Seed:          int64(seed),
			Failures:      failures,
			TicketChanges: changes,
			Faults:        fc,
			Audit:         AuditStrict,
		}
		// Differential: the same recipe runs on the engine and on the
		// from-scratch reference; each must pass the strict auditor AND
		// both must produce the same canonical digest, so the fuzzer hunts
		// for inputs where the maintained index or solver diverges from
		// the reference.
		var digests [2]string
		for i, reference := range []bool{false, true} {
			sim, err := New(cfg, MustNewFairPolicy(FairConfig{EnableTrading: trading}))
			if err != nil {
				t.Fatal(err)
			}
			if reference {
				sim.UseFromScratchReference()
			}
			res, err := sim.Run(simclock.Time(16 * simclock.Hour))
			if err != nil {
				t.Fatalf("strict audit failed (reference=%v): %v", reference, err)
			}
			if res.Audit == nil || !res.Audit.Clean() {
				t.Fatalf("audit not clean (reference=%v): %s", reference, res.Audit.Summary())
			}
			digests[i] = CanonicalDigest(res)
		}
		if digests[0] != digests[1] {
			t.Fatalf("digests diverge:\n  engine    %s\n  reference %s", digests[0], digests[1])
		}
		if fc != nil {
			return
		}
		// A nil Faults is the zero fault model, declared failures and their
		// compensation included.
		cfg.Faults = &faults.Config{}
		sim, err := New(cfg, MustNewFairPolicy(FairConfig{EnableTrading: trading}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(simclock.Time(16 * simclock.Hour))
		if err != nil {
			t.Fatalf("strict audit failed (zero fault model): %v", err)
		}
		if d := CanonicalDigest(res); d != digests[0] {
			t.Fatalf("nil Faults and the zero fault model diverge:\n  nil  %s\n  zero %s", digests[0], d)
		}
	})
}
