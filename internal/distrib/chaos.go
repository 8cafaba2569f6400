package distrib

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/migrate"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// ChaosConfig scripts a deterministic fault-injection run of the
// distributed deployment over the in-memory hub: an undisturbed
// baseline and a faulted run share one workload, and the harness
// asserts the faulted run still terminates with exactly the
// baseline's per-user usage accounting.
//
// Faults injected (all on a fixed seed):
//   - one agent is killed after KillAtRound and restarted
//     RestartAfterRounds later; it rejoins via re-registration;
//   - the central scheduler is "crashed" after SnapshotAtRound and
//     rebuilt from its on-disk snapshot;
//   - the network misbehaves as Net scripts (plan drops, duplication,
//     reordering, delay, corruption, partitions).
type ChaosConfig struct {
	Seed int64

	// Workload shape: Users users × JobsPerUser single-GPU jobs each,
	// every job sized to JobQuanta scheduling quanta of useful work.
	// Keep JobQuanta × Quantum a whole number of seconds (the defaults
	// and NetChaosConfig do): with the zoo's integral K80 rates every
	// charge is then a whole number of GPU-seconds, per-user sums are
	// exact in any order, and "usage identical to the baseline" is a
	// theorem about the protocol, not a coincidence of rounding.
	// Defaults: 2 users × 2 jobs of 4.5 quanta.
	Users       int
	JobsPerUser int
	JobQuanta   float64

	// Cluster shape: Agents servers (default 3) of GPUsPerAgent K80s
	// (default 2). Capacity must survive one kill without contention;
	// the defaults leave 4 GPUs for 4 jobs after the kill.
	Agents       int
	GPUsPerAgent int

	Quantum       simclock.Duration // default 360
	MaxRounds     int               // faulted-run round budget (default 60)
	ReportTimeout time.Duration     // default 300ms

	KillAtRound        int // kill a busy agent after this round (0 = no kill)
	RestartAfterRounds int // rejoin delay in rounds (default 2)

	SnapshotAtRound int    // crash+restore the central after this round (0 = never)
	SnapshotDir     string // required when SnapshotAtRound > 0

	// Net scripts a deterministic network fault schedule (drops,
	// duplication, reordering, delay, corruption, partitions) injected
	// into the faulted run's links; see internal/netchaos. Nil injects
	// nothing.
	Net *netchaos.Config

	// LeaseRounds is the lease both runs' plans grant (see
	// CentralConfig); zero is a lease of zero rounds.
	LeaseRounds int

	// AllowUsageDrift tolerates per-user usage exceeding the baseline
	// instead of demanding byte-identity. Arbitrary (e.g. fuzzed)
	// fault schedules can legitimately add charged rounds — a reorder
	// that holds a job's finishing report forces one more planned
	// round — but must never lose one, so drift is only ever upward.
	// Curated schedules like NetChaosConfig keep this false.
	AllowUsageDrift bool

	Obs *obs.Observer // instruments the faulted run's central and agents (optional)
}

func (cfg ChaosConfig) withDefaults() ChaosConfig {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Users <= 0 {
		cfg.Users = 2
	}
	if cfg.JobsPerUser <= 0 {
		cfg.JobsPerUser = 2
	}
	if cfg.JobQuanta <= 0 {
		cfg.JobQuanta = 4.5
	}
	if cfg.Agents <= 0 {
		cfg.Agents = 3
	}
	if cfg.GPUsPerAgent <= 0 {
		cfg.GPUsPerAgent = 2
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 360
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 60
	}
	if cfg.ReportTimeout == 0 {
		cfg.ReportTimeout = 300 * time.Millisecond
	}
	if cfg.RestartAfterRounds <= 0 {
		cfg.RestartAfterRounds = 2
	}
	return cfg
}

// ChaosSummary is the outcome of both runs plus the fault log.
type ChaosSummary struct {
	Baseline *Summary
	Faulted  *Summary
	// Events chronicles the injected faults ("kill agent-1", ...).
	Events []string
	// NetStats counts how often each network fault kind fired (empty
	// when no netchaos schedule was configured).
	NetStats map[netchaos.Kind]int
}

// UsageDigest fingerprints a run's per-user occupied usage: a SHA-256
// over the sorted users and the exact bit patterns of their GPU-second
// totals. Two runs with byte-identical fairness books produce the same
// digest, so CI can compare a disturbed matrix against its baseline
// with one string.
func UsageDigest(s *Summary) string {
	h := sha256.New()
	for _, u := range job.SortedUsers(s.UsageByUser) {
		_, _ = h.Write([]byte(u))
		_, _ = h.Write([]byte{0})
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.UsageByUser[u]))
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Digests returns (baseline, faulted) usage digests.
func (s *ChaosSummary) Digests() (string, string) {
	return UsageDigest(s.Baseline), UsageDigest(s.Faulted)
}

// UsageIdentical reports whether both runs finished with exactly the
// same per-user occupied GPU-seconds.
func (s *ChaosSummary) UsageIdentical() bool {
	if len(s.Baseline.UsageByUser) != len(s.Faulted.UsageByUser) {
		return false
	}
	for u, b := range s.Baseline.UsageByUser {
		f, ok := s.Faulted.UsageByUser[u]
		if !ok || b != f {
			return false
		}
	}
	return true
}

// chaosSpecs builds the shared workload: identical single-GPU jobs
// per user, each sized to JobQuanta quanta of useful K80 time (in
// seconds, not through BatchJobs' hours: see ChaosConfig.JobQuanta).
func chaosSpecs(cfg ChaosConfig) ([]job.Spec, error) {
	zoo := workload.DefaultZoo()
	models := []string{"lstm", "gru", "vae", "resnet50"}
	var specs []job.Spec
	for u := 0; u < cfg.Users; u++ {
		user := job.UserID(fmt.Sprintf("user%02d", u+1))
		perf := zoo.MustGet(models[u%len(models)])
		batch := workload.BatchJobs(user, perf, cfg.JobsPerUser, 1, 1)
		for i := range batch {
			batch[i].TotalMB = perf.RatePerGPU[gpu.K80] * (cfg.JobQuanta * cfg.Quantum)
		}
		specs = append(specs, batch...)
	}
	return workload.AssignIDs(specs)
}

// chaosCosts makes control operations free in the harness. The engine
// charges a job its work plus its overheads (core's arithmetic: a
// finishing job releases its GPUs mid-quantum), so every resume or
// migration a fault forces would show in the books; with free
// operations a user's usage is exactly the work credited to them, and
// its identity to the undisturbed baseline says what the matrix is
// there to say: under every fault, each executed round is counted
// once and none is lost.
var chaosCosts = migrate.CostModel{CheckpointMBps: math.Inf(1), CrossServerEff: 1}

// fastRetry keeps chaos runs quick: tight backoff, deterministic.
func fastRetry(seed int64) comm.RetryPolicy {
	return comm.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Seed:        seed,
	}
}

type chaosAgent struct {
	tr   comm.Transport
	done chan error
}

// attachFunc attaches one endpoint of a chaos run by name, the
// central's first. RunChaos attaches to a fresh in-memory hub per run
// (comm.Hub.Attach); any transport whose endpoints address each other
// by name fits.
type attachFunc func(name string) (comm.Transport, error)

func startChaosAgent(attach attachFunc, name string, gpus int, seed int64, inj *netchaos.Injector, o *obs.Observer) (*chaosAgent, error) {
	tr, err := attach(name)
	if err != nil {
		return nil, err
	}
	var wire comm.Transport = tr
	if inj != nil {
		wire = inj.Wrap(wire)
	}
	a, err := NewAgent(wire, "central", gpu.K80, gpus)
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	a.SetObserver(o)
	a.SetRetry(fastRetry(seed))
	ca := &chaosAgent{tr: tr, done: make(chan error, 1)}
	go func() { ca.done <- a.Run() }()
	return ca, nil
}

// deploy starts one run's agents and central on endpoints from attach,
// registered and ready to schedule; the agents share the central's
// observer. inj, when set, disturbs every endpoint's sends.
func deploy(cfg ChaosConfig, ccfg CentralConfig, attach attachFunc, inj *netchaos.Injector) (*Central, map[string]*chaosAgent, error) {
	ctr, err := attach("central")
	if err != nil {
		return nil, nil, err
	}
	if inj != nil {
		ctr = inj.Wrap(ctr)
	}
	agents := make(map[string]*chaosAgent, cfg.Agents)
	for i := 0; i < cfg.Agents; i++ {
		name := fmt.Sprintf("agent-%d", i)
		if agents[name], err = startChaosAgent(attach, name, cfg.GPUsPerAgent, cfg.Seed+int64(i), inj, ccfg.Obs); err != nil {
			return nil, nil, err
		}
	}
	central, err := NewCentral(ctr, core.MustNewFairPolicy(core.FairConfig{}), ccfg)
	if err == nil {
		err = central.WaitForAgents(cfg.Agents, 10*time.Second)
	}
	return central, agents, err
}

// runUndisturbed executes the baseline on the hub: same workload,
// cluster and central configuration, no faults.
func runUndisturbed(cfg ChaosConfig, ccfg CentralConfig) (*Summary, error) {
	central, agents, err := deploy(cfg, ccfg, comm.NewHub().Attach, nil)
	if err != nil {
		return nil, err
	}
	sum, err := central.Run(cfg.MaxRounds)
	if err != nil {
		return nil, err
	}
	for _, a := range agents {
		if err := waitAgent(a); err != nil {
			return nil, fmt.Errorf("distrib: baseline agent: %w", err)
		}
	}
	return sum, nil
}

func waitAgent(a *chaosAgent) error {
	select {
	case err := <-a.done:
		return err
	//gflint:ignore wallclock shutdown timeout for a real goroutine, not simulated time
	case <-time.After(10 * time.Second):
		return fmt.Errorf("agent did not shut down")
	}
}

// RunChaos executes the baseline and the faulted run and verifies the
// invariants the distributed runtime promises under churn: the
// faulted run terminates, every job finishes, per-user useful service
// never exceeds occupied service, and — control operations being free
// in the harness (chaosCosts), so that usage is exactly the work
// credited — per-user occupied usage is byte-identical to the
// undisturbed run's.
func RunChaos(cfg ChaosConfig) (*ChaosSummary, error) {
	return runChaos(cfg, comm.NewHub().Attach)
}

// runChaos is RunChaos with the faulted run's endpoints from attach; the
// baseline always runs on a hub.
func runChaos(cfg ChaosConfig, attach attachFunc) (*ChaosSummary, error) {
	cfg = cfg.withDefaults()
	if cfg.SnapshotAtRound > 0 && cfg.SnapshotDir == "" {
		return nil, fmt.Errorf("distrib: SnapshotAtRound needs SnapshotDir")
	}
	specs, err := chaosSpecs(cfg)
	if err != nil {
		return nil, err
	}
	ccfg := CentralConfig{
		Specs:         specs,
		Quantum:       cfg.Quantum,
		Costs:         chaosCosts,
		ReportTimeout: cfg.ReportTimeout,
		LeaseRounds:   cfg.LeaseRounds,
		Retry:         fastRetry(cfg.Seed),
	}
	baseline, err := runUndisturbed(cfg, ccfg)
	if err != nil {
		return nil, fmt.Errorf("distrib: baseline run: %w", err)
	}
	if baseline.Unfinished != 0 {
		return nil, fmt.Errorf("distrib: baseline left %d jobs unfinished", baseline.Unfinished)
	}
	// The faulted run's central also snapshots and is instrumented.
	ccfg.SnapshotDir, ccfg.Obs = cfg.SnapshotDir, cfg.Obs

	out := &ChaosSummary{Baseline: baseline}

	var inj *netchaos.Injector
	if cfg.Net != nil {
		net := *cfg.Net
		if net.Obs == nil {
			net.Obs = cfg.Obs
		}
		inj = netchaos.New(net)
	}
	central, agents, err := deploy(cfg, ccfg, attach, inj)
	if err != nil {
		return nil, err
	}

	var (
		victim    string
		killed    bool
		restarted bool
		restored  bool
		faulted   *Summary
	)
	for step := 0; step < cfg.MaxRounds; step++ {
		if inj != nil {
			// The round about to execute: fault windows switch and
			// delayed messages release ahead of its traffic.
			inj.Advance(central.eng.Rounds() + 1)
		}
		sum, err := central.Steps(1)
		if err != nil {
			return nil, fmt.Errorf("distrib: faulted run, round %d: %w", central.eng.Rounds(), err)
		}
		faulted = sum
		if sum.Unfinished == 0 {
			break
		}
		round := sum.Rounds

		if cfg.KillAtRound > 0 && !killed && round >= cfg.KillAtRound {
			busy := central.BusyAgents()
			if len(busy) > 0 {
				victim = busy[len(busy)-1]
				_ = agents[victim].tr.Close()
				if err := waitAgent(agents[victim]); err != ErrTransportClosed && err != nil {
					return nil, fmt.Errorf("distrib: killed agent exited oddly: %w", err)
				}
				killed = true
				out.Events = append(out.Events, fmt.Sprintf("round %d: killed %s", round, victim))
			}
		}
		if killed && !restarted && round >= cfg.KillAtRound+cfg.RestartAfterRounds {
			a, err := startChaosAgent(attach, victim, cfg.GPUsPerAgent, cfg.Seed+100, inj, cfg.Obs)
			if err != nil {
				return nil, fmt.Errorf("distrib: restarting %s: %w", victim, err)
			}
			agents[victim] = a
			restarted = true
			out.Events = append(out.Events, fmt.Sprintf("round %d: restarted %s (rejoin)", round, victim))
		}
		if cfg.SnapshotAtRound > 0 && !restored && round >= cfg.SnapshotAtRound {
			st, err := LoadSnapshot(cfg.SnapshotDir)
			if err != nil {
				return nil, fmt.Errorf("distrib: loading snapshot: %w", err)
			}
			// The new incarnation speaks through its predecessor's wire.
			central, err = RestoreCentral(central.tr, core.MustNewFairPolicy(core.FairConfig{}), ccfg, st)
			if err != nil {
				return nil, fmt.Errorf("distrib: restoring central: %w", err)
			}
			restored = true
			out.Events = append(out.Events,
				fmt.Sprintf("round %d: central crashed, restored from snapshot at round %d", round, st.Engine.Rounds))
		}
	}
	if inj != nil {
		inj.Flush()
		out.NetStats = inj.Stats()
	}
	central.ShutdownAgents()
	for name, a := range agents {
		if err := waitAgent(a); err != nil {
			return nil, fmt.Errorf("distrib: faulted agent %s: %w", name, err)
		}
	}
	out.Faulted = faulted

	// Invariants.
	if faulted == nil || faulted.Unfinished != 0 {
		n := -1
		if faulted != nil {
			n = faulted.Unfinished
		}
		return nil, fmt.Errorf("distrib: faulted run left %d jobs unfinished after %d rounds", n, cfg.MaxRounds)
	}
	useful := make(map[job.UserID]float64)
	for _, j := range faulted.Finished {
		useful[j.User] += j.AttainedService()
	}
	for u, us := range useful {
		if occ := faulted.UsageByUser[u]; us > occ+1e-6 {
			return nil, fmt.Errorf("distrib: user %s useful %v exceeds occupied %v", u, us, occ)
		}
	}
	if !out.UsageIdentical() {
		if !cfg.AllowUsageDrift {
			return nil, fmt.Errorf("distrib: per-user usage diverged: baseline %v, faulted %v",
				baseline.UsageByUser, faulted.UsageByUser)
		}
		// Drift is tolerated but must balance: a fault may cost a job
		// an extra charged round, never erase one.
		for u, b := range baseline.UsageByUser {
			if f := faulted.UsageByUser[u]; f < b-1e-6 {
				return nil, fmt.Errorf("distrib: user %s lost usage under faults: baseline %v, faulted %v", u, b, f)
			}
		}
	}
	// Guard against a degenerate comparison (nothing ran at all).
	var total float64
	for _, v := range faulted.UsageByUser {
		//gflint:ignore order sum of nonnegatives feeds only a >0 sanity check
		total += v
	}
	if total <= 0 || math.IsNaN(total) {
		return nil, fmt.Errorf("distrib: faulted run recorded no usage")
	}
	return out, nil
}

// NetChaosConfig scripts the standard partition-tolerance matrix: one
// deterministic run that exercises every network fault kind plus a
// central crash/restore mid-schedule, shaped so the faulted run's
// per-user usage digest must stay byte-identical to the baseline's.
//
// Shape: 2 users × 3 single-GPU jobs on 3 agents × 2 GPUs — every
// agent stays busy, so placement is static and the books depend only
// on how many rounds each job is charged. Jobs are sized to 4.25
// quanta (four whole charged rounds and a quarter: the finishing
// arithmetic is on the books too), and the lease of 4 rounds covers the
// longest outage.
//
// The schedule, by agent (round windows are half-open):
//   - agent-0: its reports are duplicated (rounds 1–2, dedup must
//     drop the copies), reordered (rounds 3–4, the displaced report
//     reconciles late), and one is corrupted (round 5, detected by
//     checksum and never applied);
//   - agent-1: one plan is dropped (round 2, an uncharged lost
//     round), its round-5 report is delayed across the central's
//     crash/restore after round 5 — the old-epoch report must be
//     fence-rejected — and it is fully partitioned rounds 6–7
//     (undeliverable plans charge immediate misses);
//   - agent-2: its round-2 report is delayed one round (straggler past
//     the collect deadline, reconciled next round) and its report path
//     is cut one-way rounds 3–4 (degraded mode: it keeps executing
//     leased plans and its backlog reconciles on heal).
func NetChaosConfig(seed int64, snapshotDir string) ChaosConfig {
	return ChaosConfig{
		Seed:            seed,
		Users:           2,
		JobsPerUser:     3,
		JobQuanta:       4.25,
		Agents:          3,
		GPUsPerAgent:    2,
		ReportTimeout:   250 * time.Millisecond,
		LeaseRounds:     4,
		SnapshotAtRound: 5,
		SnapshotDir:     snapshotDir,
		Net: &netchaos.Config{
			Seed: seed,
			Faults: []netchaos.Fault{
				{Kind: netchaos.Dup, From: "agent-0", To: "central", Rounds: faults.RoundInterval{From: 1, To: 3}},
				{Kind: netchaos.Reorder, From: "agent-0", To: "central", Rounds: faults.RoundInterval{From: 3, To: 5}},
				{Kind: netchaos.Corrupt, From: "agent-0", To: "central", Rounds: faults.RoundInterval{From: 5, To: 6}, Max: 1},
				{Kind: netchaos.Drop, From: "central", To: "agent-1", Rounds: faults.RoundInterval{From: 2, To: 3}, Max: 1},
				{Kind: netchaos.Delay, From: "agent-1", To: "central", Rounds: faults.RoundInterval{From: 5, To: 6}},
				{Kind: netchaos.Partition, From: "central", To: "agent-1", Rounds: faults.RoundInterval{From: 6, To: 8}},
				{Kind: netchaos.Delay, From: "agent-2", To: "central", Rounds: faults.RoundInterval{From: 2, To: 3}},
				{Kind: netchaos.OneWay, From: "agent-2", To: "central", Rounds: faults.RoundInterval{From: 3, To: 5}},
			},
		},
	}
}
