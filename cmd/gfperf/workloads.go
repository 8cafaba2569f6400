package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// quantum is the scheduling interval every workload uses (the paper's
// minute-scale time slice and the engine default).
const quantum = 360.0

// kind selects which runtime a workload drives.
type kind int

const (
	kindLocal kind = iota // core.Sim.Run
	kindSweep             // sweep.LoadGrid → Points → Run → Summarize
	kindDist              // distrib.Central + agents over comm.Hub
)

// shape is one workload's inputs. Every size lives here, so the smoke
// mode swaps numbers and nothing else.
type shape struct {
	name string
	kind kind
	// why is the one-line reason BENCHMARK.json records.
	why string

	serversPerGen int // K80/P100/V100 servers of 4 GPUs each (kindDist: unused)
	users         int
	jobsPerUser   int
	// arrivalsPerHour is the per-user Poisson rate; 0 = all jobs at t=0.
	arrivalsPerHour float64
	// batchJobs of each user's jobsPerUser arrive at t=0 instead, so a
	// short horizon starts at the steady-state active-job count rather
	// than spending itself on the ramp.
	batchJobs    int
	meanK80Hours float64
	maxK80Hours  float64
	gangs        []workload.GangWeight // nil = Philly mix
	mixedTickets bool                  // tickets 1/2/3 by user index instead of all 1
	faults       bool                  // full fault model + declared failures + ticket changes
	rounds       int                   // horizon in quanta

	// kindSweep: the grid is policies × seeds points of horizonHours each.
	policies     []string
	gridSeeds    int
	horizonHours float64

	// kindDist: agents of 4 GPUs each, generations round-robin.
	agents int
}

var gens3 = []gpu.Generation{gpu.K80, gpu.P100, gpu.V100}

var wideGangs = []workload.GangWeight{{Gang: 4, Weight: 1}, {Gang: 8, Weight: 1}, {Gang: 16, Weight: 1}}

var allPolicies = []string{"gandiva-fair", "tiresias", "gandiva-rr", "static", "fifo"}

// shapes are the six named workloads. Horizons are sized so one rep
// measures 1–2 s on a 2-core box: the driver's time cap (136 runs in
// under an hour) forces a shorter horizon than the 5–10 s a standalone
// run would use; the shapes — GPUs, users, jobs, churn — are the
// issue's.
var shapes = []shape{
	{
		name: "paper-trace", kind: kindLocal,
		why:           "204 GPUs, 70 users x 300 Philly-mix jobs, Poisson arrivals, trading: the paper's regime, where per-round fixed cost and arrival/finish churn dominate and every layer is small",
		serversPerGen: 17, users: 70, jobsPerUser: 300, arrivalsPerHour: 0.8,
		meanK80Hours: 2, rounds: 1800,
	},
	{
		name: "gpu-scale", kind: kindLocal,
		why:           "99,996 GPUs saturated by 16 users x 800 long wide gangs, no finishes: placement Index, execute, audit and settle do the work; fairshare and trade almost none",
		serversPerGen: 8333, users: 16, jobsPerUser: 800,
		meanK80Hours: 20000, maxK80Hours: 1e6, gangs: wideGangs, rounds: 30,
	},
	{
		name: "tenant-scale", kind: kindLocal,
		why:           "9,996 GPUs, 2,000 users x 25 jobs, ~4k active jobs: the users x active-jobs axis; policy, fairshare, trade and stride dominate, placement is minor",
		serversPerGen: 833, users: 2000, jobsPerUser: 25, batchJobs: 2, arrivalsPerHour: 0.7,
		meanK80Hours: 6, mixedTickets: true, rounds: 70,
	},
	{
		name: "fault-churn", kind: kindLocal,
		why:           "9,996 GPUs, 50 users x 400 jobs, full fault model plus declared failures and ticket changes: Index availability writes, compensation, backoff; a gain that costs the faulty path shows",
		serversPerGen: 833, users: 50, jobsPerUser: 400, batchJobs: 80, arrivalsPerHour: 2.7,
		meanK80Hours: 60, maxK80Hours: 480, faults: true, rounds: 160,
	},
	{
		name: "sweep-grid", kind: kindSweep,
		why:   "a JSON grid (200-GPU cluster, 20 users, 5 policies x 24 seeds) through LoadGrid, Points, sweep.Run(2 workers), Summarize: the only workload timing scenario, Generate, baselines and parallelism",
		users: 20, jobsPerUser: 40, arrivalsPerHour: 2, meanK80Hours: 4,
		policies: allPolicies, gridSeeds: 24, horizonHours: 24,
	},
	{
		name: "dist-hub", kind: kindDist,
		why:   "distrib.Central + 256 in-process agents x 4 GPUs over comm.Hub, 8 users x 256 long jobs: the only workload running comm (gob, seal/verify, dedup) and distrib (dispatch/collect/apply, rescan Place)",
		users: 8, jobsPerUser: 256, meanK80Hours: 20000, maxK80Hours: 1e6,
		agents: 256, rounds: 120,
	},
}

// smokeShapes are tiny versions of the same six, for -smoke and the
// unit tests: same code paths, seconds in total.
var smokeShapes = []shape{
	{name: "paper-trace", kind: kindLocal, serversPerGen: 4, users: 6, jobsPerUser: 12, arrivalsPerHour: 1, meanK80Hours: 2, rounds: 120},
	{name: "gpu-scale", kind: kindLocal, serversPerGen: 100, users: 4, jobsPerUser: 30, meanK80Hours: 20000, maxK80Hours: 1e6, gangs: wideGangs, rounds: 20},
	{name: "tenant-scale", kind: kindLocal, serversPerGen: 20, users: 60, jobsPerUser: 5, batchJobs: 1, arrivalsPerHour: 0.7, meanK80Hours: 6, mixedTickets: true, rounds: 30},
	{name: "fault-churn", kind: kindLocal, serversPerGen: 20, users: 6, jobsPerUser: 40, batchJobs: 8, arrivalsPerHour: 1, meanK80Hours: 30, maxK80Hours: 480, faults: true, rounds: 120},
	{name: "sweep-grid", kind: kindSweep, users: 4, jobsPerUser: 8, arrivalsPerHour: 2, meanK80Hours: 2, policies: allPolicies, gridSeeds: 2, horizonHours: 6},
	{name: "dist-hub", kind: kindDist, users: 3, jobsPerUser: 8, meanK80Hours: 20000, maxK80Hours: 1e6, agents: 6, rounds: 15},
}

// shapeByName finds a workload in the full or the smoke table.
func shapeByName(name string, smoke bool) (shape, error) {
	table := shapes
	if smoke {
		table = smokeShapes
	}
	for _, s := range table {
		if s.name == name {
			return s, nil
		}
	}
	return shape{}, fmt.Errorf("unknown workload %q", name)
}

func userName(i int) job.UserID { return job.UserID(fmt.Sprintf("user%04d", i+1)) }

// userSpecs gives every user two zoo models picked by index, so users
// differ in their speed-up across generations and trading has
// something to arbitrage.
func (sh shape) userSpecs(zoo *workload.Zoo) []workload.UserSpec {
	names := zoo.Names()
	out := make([]workload.UserSpec, 0, 2*sh.users)
	for i := 0; i < sh.users; i++ {
		u := workload.UserSpec{
			User:               userName(i),
			NumJobs:            sh.jobsPerUser - sh.batchJobs,
			ArrivalRatePerHour: sh.arrivalsPerHour,
			MeanK80Hours:       sh.meanK80Hours,
			Models:             []string{names[i%len(names)], names[(i+3)%len(names)]},
			GangDist:           sh.gangs,
		}
		out = append(out, u)
		if sh.batchJobs > 0 {
			u.NumJobs, u.ArrivalRatePerHour = sh.batchJobs, 0
			out = append(out, u)
		}
	}
	return out
}

func (sh shape) tickets() map[job.UserID]float64 {
	if !sh.mixedTickets {
		return nil
	}
	t := make(map[job.UserID]float64, sh.users)
	for i := 0; i < sh.users; i++ {
		t[userName(i)] = float64(1 + i%3)
	}
	return t
}

func (sh shape) horizon() simclock.Time { return simclock.Time(float64(sh.rounds) * quantum) }

func (sh shape) clusterSpecs() []gpu.Spec {
	specs := make([]gpu.Spec, len(gens3))
	for i, g := range gens3 {
		specs[i] = gpu.Spec{Gen: g, Servers: sh.serversPerGen, GPUsPerSrv: 4}
	}
	return specs
}

// faultConfig is the full probabilistic fault model: every mechanism
// on, at rates that keep a few percent of a ~2,500-server cluster
// unhealthy at any time.
func faultConfig() *faults.Config {
	return &faults.Config{
		ServerMTBFHours:       400,
		ServerOutageMeanHours: 1,
		FlakyServers:          12,
		FlakyMTBFHours:        3,
		FlakyOutageMinutes:    10,
		DegradeMTBFHours:      300,
		DegradeFactor:         0.6,
		JobCrashMTBFHours:     100,
		MigrationFailProb:     0.2,
		QuarantineFailures:    3,
		QuarantineWindowHours: 4,
	}
}

// declaredEvents draws the operator-declared failures and ticket
// changes of fault-churn from the seed: eight outages and ten ticket
// changes spread over the horizon.
func (sh shape) declaredEvents(seed int64, servers int) ([]core.Failure, []core.TicketChange) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	h := float64(sh.horizon())
	fails := make([]core.Failure, 8)
	for i := range fails {
		fails[i] = core.Failure{
			Server:   gpu.ServerID(rng.Intn(servers)),
			At:       simclock.Time(h * (float64(i) + rng.Float64()) / 8),
			Duration: simclock.Hour * (0.5 + 2*rng.Float64()),
		}
	}
	changes := make([]core.TicketChange, 10)
	for i := range changes {
		changes[i] = core.TicketChange{
			At:      simclock.Time(h * (float64(i) + rng.Float64()) / 10),
			User:    userName(rng.Intn(sh.users)),
			Tickets: float64(1 + rng.Intn(4)),
		}
	}
	return fails, changes
}
