package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// saturatedConfig is the gfperf gpu-scale shape at a chosen size:
// K80/P100/V100 servers of 4 GPUs, users × jobsPerUser wide gangs that
// all arrive at t=0 and never finish, so every round after the first
// is the steady state — each job keeps its devices, nothing arrives,
// nothing retires.
func saturatedConfig(tb testing.TB, serversPerGen, users, jobsPerUser int) Config {
	tb.Helper()
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: serversPerGen, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.P100, Servers: serversPerGen, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: serversPerGen, GPUsPerSrv: 4},
	)
	zoo := workload.DefaultZoo()
	names := zoo.Names()
	specs := make([]workload.UserSpec, users)
	for i := range specs {
		specs[i] = workload.UserSpec{
			User:         job.UserID(fmt.Sprintf("user%04d", i+1)),
			NumJobs:      jobsPerUser,
			MeanK80Hours: 20000,
			Models:       []string{names[i%len(names)], names[(i+3)%len(names)]},
			GangDist:     []workload.GangWeight{{Gang: 4, Weight: 1}, {Gang: 8, Weight: 1}, {Gang: 16, Weight: 1}},
		}
	}
	jobs, err := workload.Generate(zoo, workload.Config{Seed: 42, Users: specs, MaxK80Hours: 1e6})
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Cluster: cluster, Specs: jobs, Quantum: 360, Seed: 42, Audit: AuditStrict}
}

// steadySim builds the engine under the full Gandiva_fair policy and
// runs it into its steady state: every scratch buffer reaches its final
// size and the profiler has probed every job well before round 12. step
// runs one more round.
func steadySim(t *testing.T, cfg Config) (s *Sim, step func()) {
	t.Helper()
	s, err := New(cfg, MustNewFairPolicy(FairConfig{EnableTrading: true}))
	if err != nil {
		t.Fatal(err)
	}
	step = func() {
		s.admitArrivals()
		if err := s.runRound(); err != nil {
			t.Fatal(err)
		}
		s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
	}
	for i := 0; i < 12; i++ {
		step()
	}
	return s, step
}

// TestSteadyStateRoundAllocCeiling pins the dense-scratch rule
// (DESIGN.md §8) on a saturated 12,000-GPU cluster: a steady-state
// round allocates nothing per scheduled job and nothing per device —
// the policy builds the Decision's requests in a buffer it keeps, and
// placement keeps its state and cuts new device lists from a slab. It
// measures 192 B a round for these 1,200 jobs, CapacityByGen's map; a
// RoundState made every round, not refilled in place, cost 112 B more
// (304 B), building the requests afresh ≈20 KiB more,
// ≈30 KiB while stride handed out ID slices, ≈114 KiB while every round
// built the placement Result's map, and the per-device owner maps,
// server sets and per-round job maps before that 2.1 MB. The count is
// deterministic; the ceiling is the measured value and a tenth.
func TestSteadyStateRoundAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 12k-GPU cluster")
	}
	s, step := steadySim(t, saturatedConfig(t, 1000, 8, 150))
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds

	placedGPUs := 0
	for _, info := range s.execRep.Ran {
		placedGPUs += info.Gang
	}
	if placedGPUs < 10_000 {
		t.Fatalf("only %d GPUs hold jobs: the cluster is not saturated", placedGPUs)
	}
	const ceiling = 211
	t.Logf("steady-state round: %.0f B allocated, %d GPUs placed", perRound, placedGPUs)
	if perRound > ceiling {
		t.Errorf("steady-state round allocates %.0f B, ceiling %d B", perRound, ceiling)
	}
}

// TestFairRoundAllocsPerUser pins what a user costs the fairness
// pipeline per round — water-fill, trade, credit, stride pick — at a
// fraction of an allocation and a fixed number of bytes: the policy
// lays its rows per user and per job out into tables it keeps, the
// water-fill and the trade walk users by position over slices kept
// between rounds, the stride kernel orders positions in a slice the
// policy keeps, and the Decision's requests are built in a buffer it
// keeps. Ten times the users on ten times the cluster, four
// never-finishing jobs each, trading on, steady state. It measures 0.00
// allocations and 6 B per additional user (the trade log, which grows
// with the trades made); the requests built afresh and the devices of
// jobs placed anew each in their own allocation cost 0.13 allocations
// and 75 B, the stride order's per-user ID slice 1 allocation and 36 B
// more, the per-round shares, allocation and trade maps before that
// 492 B, and the policy's per-round maps before them 6.23 allocations.
// The counts are deterministic; the ceilings are the measured values
// and a tenth, the allocation one rounded up to a hundredth.
func TestFairRoundAllocsPerUser(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 21.6k-GPU cluster")
	}
	perUser, bytesPerUser := fairRoundCostPerUser(t, false)
	const allocsCeiling, bytesCeiling = 0.01, 7
	if perUser > allocsCeiling {
		t.Errorf("a user costs %.2f allocations per round, ceiling %v", perUser, allocsCeiling)
	}
	if bytesPerUser > bytesCeiling {
		t.Errorf("a user costs %.0f B per round, ceiling %d B", bytesPerUser, bytesCeiling)
	}
}

// TestFairRoundAllocsPerDebtor is TestFairRoundAllocsPerUser with every
// user owing failure compensation and the policy repaying it, steady
// state: the engine shows the policy the debt in a slice it keeps, by
// user position, the policy answers with a flag, and the debt
// water-fill runs one fill over two scratch slices the policy keeps. It
// measures 0.00 allocations and 12.5 B per additional debtor; the
// fill's scratch made on every call cost 16 B more (29 B), and a map of
// the debt made every round and the policy's map of its grants, with a
// second fill that only fed them, 0.01 allocations and 75 B. The counts
// are deterministic; the ceilings are the measured values and a tenth,
// the allocation one rounded up to a hundredth, the bytes to a byte.
func TestFairRoundAllocsPerDebtor(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 21.6k-GPU cluster")
	}
	perUser, bytesPerUser := fairRoundCostPerUser(t, true)
	const allocsCeiling, bytesCeiling = 0.01, 14
	if perUser > allocsCeiling {
		t.Errorf("a debtor costs %.2f allocations per round, ceiling %v", perUser, allocsCeiling)
	}
	if bytesPerUser > bytesCeiling {
		t.Errorf("a debtor costs %.0f B per round, ceiling %d B", bytesPerUser, bytesCeiling)
	}
}

// fairRoundCostPerUser is what an additional user costs a steady-state
// round, in allocations and bytes: ten times the users on ten times the
// cluster, four never-finishing jobs each, trading on. With owe, every
// user owes a debt the rounds cannot repay, and the policy repays.
func fairRoundCostPerUser(t *testing.T, owe bool) (allocs, bytes float64) {
	const few, many, jobsPerUser = 20, 200, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	perRound := func(users int) (allocs, bytes float64) {
		allocs, bytes = math.Inf(1), math.Inf(1)
		for rep := 0; rep < 3; rep++ { // the minimum of one window: everything above the floor is the runtime's own
			s, step := steadySim(t, saturatedConfig(t, users*9, users, jobsPerUser))
			if owe {
				for i := range s.comp {
					s.comp[i].debt = 1e15
				}
				s.compOpen = len(s.comp)
				for i := 0; i < 12; i++ { // into the repaying rounds' steady state
					step()
				}
			}
			const rounds = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			if owe && (s.compOpen != len(s.comp) || !s.rd.repays) {
				t.Fatalf("%d of %d users owe, repaying %v: want every user owing and the policy repaying", s.compOpen, len(s.comp), s.rd.repays)
			}
			allocs = math.Min(allocs, float64(after.Mallocs-before.Mallocs)/rounds)
			bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/rounds)
		}
		return allocs, bytes
	}
	a, aBytes := perRound(few)
	b, bBytes := perRound(many)
	allocs, bytes = (b-a)/(many-few), (bBytes-aBytes)/(many-few)
	t.Logf("per round: %.0f allocations, %.0f B at %d users; %.0f, %.0f B at %d: %.2f allocations, %.0f B per additional user",
		a, aBytes, few, b, bBytes, many, allocs, bytes)
	return allocs, bytes
}

// TestResultAllocsIndependentOfUsers pins what a run's Result costs
// per user: nothing. Result renders each book as one map — usage as a
// row of generations per user, the value an array — so a user adds an
// entry, not an allocation. Every user runs one never-finishing job on a
// K80 server of their own; after two rounds each has usage, useful
// time, fair usage and throughput. Between 200 and 2,000 users it
// measures 0.0133 allocations per additional user: 24 allocations, six
// more for each of the four maps sized for 2,000 entries, which the map
// implementation holds in tables of at most 1,024 slots, each its own
// allocation. One map of generations per user cost 2.0133. The count is
// deterministic; the ceiling is the measured value and a tenth, rounded
// up to a thousandth.
func TestResultAllocsIndependentOfUsers(t *testing.T) {
	const few, many = 200, 2000
	perf := zoo.MustGet("vae")
	resultAllocs := func(users int) float64 {
		specs := make([]job.Spec, users)
		for i := range specs {
			specs[i] = job.Spec{ID: job.ID(i + 1), User: job.UserID(fmt.Sprintf("user%04d", i)), Perf: perf,
				Gang: 1 + i%4, TotalMB: 1e12}
		}
		s, err := New(Config{Cluster: k80Cluster(users, 4), Specs: specs, Quantum: 360, Seed: 1}, MustNewFairPolicy(FairConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			if ran, err := s.Step(simclock.Forever); !ran || err != nil {
				t.Fatalf("step: ran=%v err=%v", ran, err)
			}
		}
		if res := s.Result(); len(res.UsageByUserGen) != users || len(res.ThroughputByUser) != users {
			t.Fatalf("%d of %d users charged usage, %d throughput", len(res.UsageByUserGen), users, len(res.ThroughputByUser))
		}
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ { // the minimum: everything above the floor is the runtime's own
			best = math.Min(best, testing.AllocsPerRun(10, func() { s.Result() }))
		}
		return best
	}
	a, b := resultAllocs(few), resultAllocs(many)
	perUser := (b - a) / (many - few)
	t.Logf("Result: %.0f allocations at %d users, %.0f at %d: %.4f per additional user", a, few, b, many, perUser)
	const ceiling = 0.015
	if perUser > ceiling {
		t.Errorf("a user costs Result %.4f allocations, ceiling %v", perUser, ceiling)
	}
}

// TestAdmissionAllocsPerJob pins what admitting a job costs: the
// engine cuts each arrival's record from a block of 64 it owns, so a
// thousand arrivals make a few dozen allocations, not a thousand. It
// admits the t=0 arrivals of two saturated workloads, 2,000 and 8,000
// jobs, and takes the difference of the minimum of three reps each:
// 0.0178 allocations per additional job, 1/64 (0.0156) for the records
// and the rest the growth of the event log, a chunk of 512 pointer-free
// 48-byte entries at a time (the job list and the slot table grow once
// for the whole burst; the log's name table was sized for the users
// when the engine was built). A single rep read up to 0.0188. A job in
// its own allocation cost 1.00, and growing the job list an arrival at
// a time 0.0198. The ceiling is an earlier measured value and a tenth.
func TestAdmissionAllocsPerJob(t *testing.T) {
	const few, many, users = 2000, 8000, 16
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	admit := func(jobs int) float64 {
		cfg := saturatedConfig(t, 10, users, jobs/users)
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ { // the minimum: everything above the floor is the runtime's own
			s, err := New(cfg, MustNewFairPolicy(FairConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.admitArrivals()
			runtime.ReadMemStats(&after)
			if len(s.jobs) != jobs {
				t.Fatalf("admitted %d jobs at t=0, want %d", len(s.jobs), jobs)
			}
			best = math.Min(best, float64(after.Mallocs-before.Mallocs))
		}
		return best
	}
	a, b := admit(few), admit(many)
	perJob := (b - a) / (many - few)
	t.Logf("admission: %.0f allocations for %d jobs, %.0f for %d: %.4f per additional job", a, few, b, many, perJob)
	const ceiling = 0.020
	if perJob > ceiling {
		t.Errorf("admitting a job costs %.4f allocations, ceiling %v", perJob, ceiling)
	}
}

// policyMallocs wraps a policy and counts the allocations made inside
// its calls, and the users each Decide meets who had no runnable job
// the round before.
type policyMallocs struct {
	Policy
	mallocs     uint64
	returns     int
	last, users map[job.UserID]bool
}

func (p *policyMallocs) count(call func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	call()
	runtime.ReadMemStats(&after)
	p.mallocs += after.Mallocs - before.Mallocs
}

func (p *policyMallocs) Decide(st *RoundState) (dec Decision) {
	clear(p.users)
	for _, j := range st.Jobs {
		if !p.users[j.User] && !p.last[j.User] {
			p.returns++
		}
		p.users[j.User] = true
	}
	p.last, p.users = p.users, p.last
	p.count(func() { dec = p.Policy.Decide(st) })
	return dec
}

func (p *policyMallocs) Executed(rep *ExecReport) { p.count(func() { p.Policy.Executed(rep) }) }
func (p *policyMallocs) JobFinished(id job.ID)    { p.count(func() { p.Policy.JobFinished(id) }) }

// TestReturningUserAllocsNothing pins what a user who comes back costs
// the policy: nothing. 64 users each run one short job every fourth
// round, so every round a quarter of them arrive and the quarter whose
// jobs finished leave. The policy lays each round out into tables it
// keeps, which the warm-up brings to their high-water mark, so a user
// who leaves frees a row the next one fills. It measures 0.00
// allocations per returning user, the minimum of three reps of the
// window on fresh engines (one rep alone once read 4 in a full test
// run); a record and two lists made for each cost 3.00.
func TestReturningUserAllocsNothing(t *testing.T) {
	const users, period, rounds = 64, 4, 60
	perf := zoo.MustGet("vae")
	var specs []job.Spec
	for r := 0; r < rounds; r++ {
		for u := r % period; u < users; u += period {
			specs = append(specs, job.Spec{
				ID: job.ID(len(specs) + 1), User: job.UserID(fmt.Sprintf("user%02d", u)), Perf: perf, Gang: 1,
				TotalMB: 60 * perf.RatePerGPU[gpu.K80], Arrival: simclock.Time(r * 360),
			})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// window runs the measured rounds on a fresh engine and returns the
	// policy's mallocs in them and the users who returned.
	window := func() (uint64, int) {
		probe := &policyMallocs{Policy: MustNewFairPolicy(FairConfig{}), last: map[job.UserID]bool{}, users: map[job.UserID]bool{}}
		s, err := New(Config{Cluster: k80Cluster(8, 4), Specs: specs, Quantum: 360, Seed: 1, Audit: AuditStrict}, probe)
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if ran, err := s.Step(simclock.Forever); !ran || err != nil {
				t.Fatalf("step: ran=%v err=%v", ran, err)
			}
		}
		for i := 0; i < 3*period; i++ { // every user has left and come back
			step()
		}
		probe.mallocs, probe.returns = 0, 0
		for i := 0; i < rounds-4*period; i++ {
			step()
		}
		if s.Result().Unfinished > users {
			t.Fatalf("%d jobs unfinished: the users do not leave", s.Result().Unfinished)
		}
		return probe.mallocs, probe.returns
	}
	// The minimum of three reps of the same window, as the other window
	// gates take: a malloc above it is the runtime's own.
	mallocs, returns := window()
	for rep := 1; rep < 3; rep++ {
		m, r := window()
		if r != returns {
			t.Fatalf("rep %d met %d returning users, rep 0 %d", rep, r, returns)
		}
		mallocs = min(mallocs, m)
	}
	perReturn := float64(mallocs) / float64(returns)
	t.Logf("%d allocations in the policy over %d returning users: %.2f each", mallocs, returns, perReturn)
	if returns < 500 {
		t.Fatalf("only %d users returned", returns)
	}
	if mallocs != 0 {
		t.Errorf("returning users cost the policy %d allocations, %.2f each", mallocs, perReturn)
	}
}

// TestRoundAllocCeilingAt100kGPUs caps what a round allocates on a
// 100,000-GPU cluster with few jobs (5 users × 100), arrival round
// included: nothing in the round may be per device or per server. The
// maintained placement index is what keeps that true; the per-round
// full rescans it replaced made ~620k allocations a round at this
// shape. The engine now makes 6.9 (7.6 while admission grew the job
// list an arrival at a time): 40.1 while every arrival was its own
// allocation and every round made its RoundState, 66 while the requests
// were built afresh and every device list was its own allocation, 101
// while stride handed out ID slices. The ceiling is the measured value
// and a tenth.
func TestRoundAllocCeilingAt100kGPUs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-GPU cluster")
	}
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 12500, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 12500, GPUsPerSrv: 4},
	)
	zoo := workload.DefaultZoo()
	names := zoo.Names()
	users := make([]workload.UserSpec, 5)
	for i := range users {
		users[i] = workload.UserSpec{
			User:    job.UserID(fmt.Sprintf("user%02d", i+1)),
			NumJobs: 100, MeanK80Hours: 1000, // long-running: every round stays fully loaded
			Models: []string{names[i%len(names)], names[(i+3)%len(names)]},
		}
	}
	const rounds, ceiling = 20, 14
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ { // the minimum: everything above the floor is the runtime's own
		specs, err := workload.Generate(zoo, workload.Config{Seed: 42, Users: users})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Cluster: cluster, Specs: specs, Quantum: 360, Seed: 42},
			MustNewFairPolicy(FairConfig{EnableTrading: true}))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Run(rounds * 360)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != rounds {
			t.Fatalf("ran %d rounds, want %d", res.Rounds, rounds)
		}
		best = math.Min(best, float64(after.Mallocs-before.Mallocs)/rounds)
	}
	t.Logf("100k-GPU round: %.1f allocations", best)
	if best > ceiling {
		t.Errorf("100k-GPU round makes %.1f allocations, ceiling %d", best, ceiling)
	}
}

// TestDeviceListsStayPut holds placement's slab to its contract: a
// device list, once handed out, is never written again and is capped at
// its own length, so a job's record of where it ran, a Move's From and
// whatever an observer copied out of a round keep their meaning while
// later lists are cut beside them. It copies every job's list at round
// 12 of a time-sliced, saturated cluster and, ten rounds of churn later,
// wants each old slice to hold the same devices with cap == len.
func TestDeviceListsStayPut(t *testing.T) {
	s, step := steadySim(t, saturatedConfig(t, 100, 8, 60))
	type snap struct{ list, copied []gpu.DeviceID }
	var snaps []snap
	for _, j := range s.jobs {
		if devs := j.Devices(); devs != nil {
			snaps = append(snaps, snap{devs, slices.Clone(devs)})
		}
	}
	before, _ := s.pidx.DeviceOps()
	for i := 0; i < 10; i++ {
		step()
	}
	if after, _ := s.pidx.DeviceOps(); len(snaps) < 100 || after-before < 1000 {
		t.Fatalf("%d lists copied, %d devices taken since: not a time-sliced cluster", len(snaps), after-before)
	}
	for _, sn := range snaps {
		if !slices.Equal(sn.list, sn.copied) || cap(sn.list) != len(sn.list) {
			t.Fatalf("a device list handed out as %v now reads %v (cap %d)", sn.copied, sn.list, cap(sn.list))
		}
	}
}

// holdPolicy runs every runnable job on K80 every round out of one
// reused request slice, so a round under it allocates only what the
// engine does.
type holdPolicy struct{ run []placement.Request }

func (p *holdPolicy) Name() string         { return "hold" }
func (p *holdPolicy) Executed(*ExecReport) {}
func (p *holdPolicy) JobFinished(job.ID)   {}
func (p *holdPolicy) Decide(st *RoundState) Decision {
	p.run = p.run[:0]
	for _, j := range st.Jobs {
		p.run = append(p.run, placement.Request{Job: j, Gen: gpu.K80})
	}
	//gflint:ignore retain the engine is done with a round's requests when the round ends
	return Decision{Run: p.run}
}

// TestServersOutRoundAllocs is the allocation gate on the server sets: a
// steady round with one server down and quarantined, and another
// quarantined after a short outage, spends no allocation on "which
// servers are out" — the sweep's down set, the breaker's quarantined
// set and the round's down and unavailable sets are bitsets kept in
// place, and placement, capacity and the audit read them as they are.
// What is left is the map CapacityByGen returns: two allocations, its
// header and its table. The count is deterministic;
// a RoundState made every round cost one more, and with the sets as
// maps it was 9: a fresh down map, the breaker's copy, the unavailable
// union and CapacityByGen's seen map cost 6.
func TestServersOutRoundAllocs(t *testing.T) {
	specs, _ := workload.AssignIDs(workload.BatchJobs("u", zoo.MustGet("vae"), 4, 4, 1e4))
	s, err := New(Config{
		Cluster: k80Cluster(8, 4), Specs: specs, Seed: 1, Audit: AuditStrict,
		Failures: []Failure{{Server: 0, At: 0, Duration: 1e9}, {Server: 1, At: 0, Duration: 500}},
		Faults:   &faults.Config{QuarantineFailures: 1, QuarantineCooloffHours: 1e5},
	}, &holdPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		s.admitArrivals()
		if err := s.runRound(); err != nil {
			t.Fatal(err)
		}
		s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
	}
	for i := 0; i < 4; i++ {
		step()
	}
	if !s.rd.down.Has(0) || s.rd.down.Has(1) || !s.rd.quar.Has(0) || !s.rd.quar.Has(1) || len(s.quanta) != 4 {
		t.Fatalf("not the steady state: down %d, quarantined %d, %d jobs placed", s.rd.down.Len(), s.rd.quar.Len(), len(s.quanta))
	}
	const want = 2
	if got := testing.AllocsPerRun(20, step); got != want {
		t.Errorf("a steady round with servers out makes %v allocations, want %d", got, want)
	}
}

// replayPolicy is a policy that can be told to ask again for exactly
// what it asked for last round, keeping the wrapped policy out of that
// round altogether.
type replayPolicy struct {
	Policy
	replay bool
	last   []placement.Request
}

func (p *replayPolicy) Decide(st *RoundState) Decision {
	if p.replay {
		return Decision{Run: slices.Clone(p.last)}
	}
	dec := p.Policy.Decide(st)
	p.last = slices.Clone(dec.Run)
	return dec
}

func (p *replayPolicy) Executed(rep *ExecReport) {
	if !p.replay {
		p.Policy.Executed(rep)
	}
}

// TestSteadyRoundTouchesOnlyChurn is the operation gate on the
// persistent placement, at the gfperf gpu-scale shape (99,996 GPUs
// saturated by 12,800 wide gangs under the full policy): the devices a
// round takes and releases are bounded by the jobs whose placement
// changed, not by the ≈100k devices placed. Changed is every request not
// kept where it was plus every job dispatched last round and not asked
// for again; each costs at most its gang once released and once taken.
// A round that repeats the last one's requests touches no device at
// all. It also counts the policy's per-job work: the stride comparisons
// a round makes stay within 6 per runnable job — 2.8 to 4.9 measured,
// where sorting each user's jobs afresh made 8.6 to 23.5 — because
// stride.Order merges the few sorted runs last round's order leaves
// behind. The counts are deterministic.
func TestSteadyRoundTouchesOnlyChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-GPU cluster")
	}
	policy := &replayPolicy{Policy: MustNewFairPolicy(FairConfig{EnableTrading: true})}
	s, err := New(saturatedConfig(t, 8333, 16, 800), policy)
	if err != nil {
		t.Fatal(err)
	}
	ops := func() int {
		takes, releases := s.pidx.DeviceOps()
		return takes + releases
	}
	compares := 0
	defer countStrideCompares(&compares)()
	var ran []*job.Job // last round's dispatched jobs
	for round := 1; round <= 14; round++ {
		policy.replay = round%5 == 0
		before := ops()
		compares = 0
		s.admitArrivals()
		if err := s.runRound(); err != nil {
			t.Fatal(err)
		}
		s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
		touched := ops() - before

		changed, placed := 0, 0
		for i, r := range policy.last {
			if s.rd.placed.Marks[i] != placement.Kept {
				changed += r.Job.Gang
			}
		}
		for _, j := range ran {
			if at := j.Slot(); s.slots[at] != j || s.reqAt[at] == 0 { // retired, or not asked for again
				changed += j.Gang
			}
		}
		ran = ran[:0]
		for i := range s.quanta {
			ran = append(ran, s.quanta[i].Job)
			placed += s.quanta[i].Job.Gang
		}
		t.Logf("round %d: %d devices placed, %d taken or released, %d on jobs that changed; %d stride comparisons over %d runnable jobs",
			round, placed, touched, changed, compares, len(s.jobs))
		switch {
		case placed < 90_000:
			t.Fatalf("round %d: only %d GPUs hold jobs: the cluster is not saturated", round, placed)
		case policy.replay && (touched != 0 || changed != 0):
			t.Errorf("round %d repeats the last one's requests and takes or releases %d devices (%d on changed jobs)", round, touched, changed)
		case touched > 2*changed:
			t.Errorf("round %d takes or releases %d devices, the jobs that changed hold %d", round, touched, changed)
		case compares > 6*len(s.jobs):
			t.Errorf("round %d makes %d stride comparisons over %d runnable jobs", round, compares, len(s.jobs))
		case round > 1 && !policy.replay && (changed == 0 || changed > 2*placed/3):
			t.Errorf("round %d: %d of %d placed devices are on jobs that changed: not the time-sliced steady state", round, changed, placed)
		}
	}
}

// BenchmarkRoundGPUScale is the gfperf gpu-scale workload (99,996 GPUs,
// 12,800 wide gangs) as a `go test -bench` target for profiling. Beside
// the time it reports how many devices placement took or released per
// round, which is deterministic.
func BenchmarkRoundGPUScale(b *testing.B) {
	cfg := saturatedConfig(b, 8333, 16, 800)
	const rounds = 30
	deviceOps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg, MustNewFairPolicy(FairConfig{EnableTrading: true}))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(simclock.Time(rounds * 360)); err != nil {
			b.Fatal(err)
		}
		takes, releases := s.pidx.DeviceOps()
		deviceOps += takes + releases
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N*rounds), "ms/round")
	b.ReportMetric(float64(deviceOps)/float64(b.N*rounds), "takes+releases/round")
}

// tenantScaleConfig is the gfperf tenant-scale shape: 833 servers of 4
// GPUs per generation, 2,000 users of 25 jobs with the Philly gang mix
// and two zoo models each, 2 jobs at t=0 and the rest arriving at 0.7
// an hour, a mean of 6 K80-hours, tickets 1/2/3 by user index, strict
// audit.
func tenantScaleConfig(tb testing.TB) Config {
	tb.Helper()
	const users, jobsPerUser, batch = 2000, 25, 2
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 833, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.P100, Servers: 833, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 833, GPUsPerSrv: 4},
	)
	zoo := workload.DefaultZoo()
	names := zoo.Names()
	specs := make([]workload.UserSpec, 0, 2*users)
	tickets := make(map[job.UserID]float64, users)
	for i := 0; i < users; i++ {
		u := workload.UserSpec{
			User:               job.UserID(fmt.Sprintf("user%04d", i+1)),
			NumJobs:            jobsPerUser - batch,
			ArrivalRatePerHour: 0.7,
			MeanK80Hours:       6,
			Models:             []string{names[i%len(names)], names[(i+3)%len(names)]},
		}
		specs = append(specs, u)
		u.NumJobs, u.ArrivalRatePerHour = batch, 0
		specs = append(specs, u)
		tickets[u.User] = float64(1 + i%3)
	}
	jobs, err := workload.Generate(zoo, workload.Config{Seed: 42, Users: specs})
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Cluster: cluster, Specs: jobs, Tickets: tickets, Quantum: 360, Seed: 42, Audit: AuditStrict}
}

// decideTimer wraps a policy and adds the wall time of its Decide calls
// to *spent.
type decideTimer struct {
	Policy
	spent *time.Duration
}

func (p decideTimer) Decide(st *RoundState) Decision {
	t := time.Now()
	dec := p.Policy.Decide(st)
	*p.spent += time.Since(t)
	return dec
}

// BenchmarkRoundTenantScale is the gfperf tenant-scale workload (9,996
// GPUs, 2,000 users × 25 jobs, trading on, 70 rounds) as a `go test
// -bench` target for profiling the users × jobs axis. Beside the time a
// round takes it reports the time FairPolicy.Decide takes and the
// stride comparisons a round makes, which are deterministic.
func BenchmarkRoundTenantScale(b *testing.B) {
	cfg := tenantScaleConfig(b)
	const rounds = 70
	var decide time.Duration
	compares := 0
	defer countStrideCompares(&compares)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg, decideTimer{MustNewFairPolicy(FairConfig{EnableTrading: true}), &decide})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(simclock.Time(rounds * 360)); err != nil {
			b.Fatal(err)
		}
	}
	n := float64(b.N * rounds)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/n, "ms/round")
	b.ReportMetric(float64(decide.Microseconds())/1e3/n, "decide-ms/round")
	b.ReportMetric(float64(compares)/n, "compares/round")
}
