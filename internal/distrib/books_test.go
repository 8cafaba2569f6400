package distrib

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/workload"
)

// mapBooks is the coordinator's lease bookkeeping as it was before the
// per-agent window, kept as the oracle for it: appliedRound is the
// newest round counted per agent (the plans' AckRound), appliedSet the
// counted (agent, round) pairs, plannedWin what each agent was asked to
// run per round, and every dispatch slides the last two past the lease.
type mapBooks struct {
	lease        int
	appliedRound map[string]int
	appliedSet   map[string]map[int]bool
	plannedWin   map[int]map[string]map[job.ID]plannedEntry
}

func newMapBooks(lease int) *mapBooks {
	return &mapBooks{
		lease:        lease,
		appliedRound: make(map[string]int),
		appliedSet:   make(map[string]map[int]bool),
		plannedWin:   make(map[int]map[string]map[job.ID]plannedEntry),
	}
}

// plan records one assignment of agent's plan for round.
func (b *mapBooks) plan(round int, agent string, pe plannedEntry) {
	if b.plannedWin[round] == nil {
		b.plannedWin[round] = make(map[string]map[job.ID]plannedEntry)
	}
	if b.plannedWin[round][agent] == nil {
		b.plannedWin[round][agent] = make(map[job.ID]plannedEntry)
	}
	b.plannedWin[round][agent][pe.q.Job.ID] = pe
}

// slide drops what no report can be charged against once round has
// been dispatched.
func (b *mapBooks) slide(round int) {
	floor := round - 1 - b.lease
	for r := range b.plannedWin {
		if r <= floor {
			delete(b.plannedWin, r)
		}
	}
	for _, rounds := range b.appliedSet {
		for r := range rounds {
			if r <= floor {
				delete(rounds, r)
			}
		}
	}
}

func (b *mapBooks) markApplied(agent string, round int) {
	if b.appliedSet[agent] == nil {
		b.appliedSet[agent] = make(map[int]bool)
	}
	b.appliedSet[agent][round] = true
	if round > b.appliedRound[agent] {
		b.appliedRound[agent] = round
	}
}

// late is reconcileLate's decision on one report before the window:
// the same skip rules in the same order, naming the same event.
func (b *mapBooks) late(rep comm.RoundReport, round int, apply func(pe *plannedEntry, p comm.JobProgress, r int) bool) string {
	if rep.Round >= round || rep.Round <= round-1-b.lease {
		return ""
	}
	if b.appliedSet[rep.Agent][rep.Round] {
		return "late_report_dropped"
	}
	planned := b.plannedWin[rep.Round][rep.Agent]
	if planned == nil {
		return ""
	}
	applied := false
	for _, p := range rep.Jobs {
		pe, ok := planned[job.ID(p.JobID)]
		if !ok || pe.frac < 1 {
			continue
		}
		if apply(&pe, p, rep.Round) {
			applied = true
		}
	}
	b.markApplied(rep.Agent, rep.Round)
	if applied {
		return "late_report_applied"
	}
	return "late_report_dropped"
}

// lastRound is the job-keyed half of a late report's fate as it was
// before the window kept it, kept as the oracle for answeredSince: the
// newest round counted per job, and a job's answer is charged when no
// round of it that new or newer has been.
type lastRound map[job.ID]int

func (m lastRound) apply(pe *plannedEntry, _ comm.JobProgress, r int) bool {
	if m[pe.q.Job.ID] >= r {
		return false
	}
	m[pe.q.Job.ID] = r
	return true
}

// leasedCentral restores a coordinator of n one-K80 agents granting
// leases of lease rounds, so its agents' windows are sized as a run's.
func leasedCentral(t *testing.T, lease, n int) *Central {
	t.Helper()
	specs, err := workload.AssignIDs(workload.BatchJobs("alice", zoo.MustGet("lstm"), 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	st := &State{Epoch: 1, Engine: &core.Checkpoint{Pending: specs}}
	for i := 0; i < n; i++ {
		st.Agents = append(st.Agents, AgentState{Name: fmt.Sprintf("agent-%d", i), Gen: int(gpu.K80), GPUs: 1})
	}
	tr, err := comm.NewHub().Attach("central")
	if err != nil {
		t.Fatal(err)
	}
	c, err := RestoreCentral(tr, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{LeaseRounds: lease}, st)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWindowMatchesMapBooks drives the per-agent window and the map
// books through the same random rounds — plans (some jobs cross-server
// shards, jobs moving between agents), on-time reports, withheld
// reports, duplicated and reordered replays, and reports at, inside
// and past the window's edge (rounds down to zero and below) — and
// requires the same AckRound for every plan, the same event for every
// late report and the same answers charged, at every lease length from
// zero rounds (a one-slot window) up.
func TestWindowMatchesMapBooks(t *testing.T) {
	const nAgents, nRounds = 3, 40
	seen := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lease := []int{0, 1, 2, 3, 4, 6}[seed%6]
		agents := leasedCentral(t, lease, nAgents).agents
		oracle := newMapBooks(lease)
		// Each side lists the jobs it charges: the window's side what
		// answeredSince finds unanswered, marking the entry as applyLate
		// does; the map side what the job-keyed map finds newer.
		var charged, wantCharged []job.ID
		got := func(pe *plannedEntry, _ comm.JobProgress, r int) bool {
			if answeredSince(agents, pe.q.Job.ID, r) {
				return false
			}
			pe.q.Answered = true
			charged = append(charged, pe.q.Job.ID)
			return true
		}
		want := lastRound{}
		wantApply := func(pe *plannedEntry, p comm.JobProgress, r int) bool {
			ok := want.apply(pe, p, r)
			if ok {
				wantCharged = append(wantCharged, pe.q.Job.ID)
			}
			return ok
		}
		// arrivals[2r] reach reconcileLate before round r plans (Steps),
		// arrivals[2r+1] after round r's collect (Execute).
		arrivals := map[int][]comm.RoundReport{}
		arrive := func(at int, rep comm.RoundReport) { arrivals[at] = append(arrivals[at], rep) }
		jobs := map[job.ID]*job.Job{}
		jobOf := func(id job.ID) *job.Job {
			if jobs[id] == nil {
				jobs[id] = &job.Job{Spec: job.Spec{ID: id}}
			}
			return jobs[id]
		}
		// The jobs come in nAgents groups of six, job 10g+k; round r
		// plans group (i+shift[r]) mod nAgents on agent i, so a job
		// moves between agents whenever the shift changes.
		shift := map[int]int{}
		group := func(i, r int) int { return (i + shift[r]) % nAgents }
		// lateReport carries agent i's progress for round r on a random
		// set of job IDs, mostly of the group it was planned, planned
		// or not.
		lateReport := func(i, r int) comm.RoundReport {
			rep := comm.RoundReport{Agent: agents[i].name, Round: r}
			g := group(i, r)
			if rng.Intn(4) == 0 {
				g = rng.Intn(nAgents)
			}
			for k := 1; k <= 6; k++ {
				if rng.Intn(2) == 0 {
					rep.Jobs = append(rep.Jobs, comm.JobProgress{JobID: int64(10*g + k)})
				}
			}
			return rep
		}
		reconcile := func(round, at int) {
			queue := arrivals[at]
			delete(arrivals, at)
			sort.SliceStable(queue, func(i, k int) bool {
				if queue[i].Round != queue[k].Round {
					return queue[i].Round < queue[k].Round
				}
				return queue[i].Agent < queue[k].Agent
			})
			for _, rep := range queue {
				i := int(rep.Agent[len(rep.Agent)-1] - '0')
				charged, wantCharged = charged[:0], wantCharged[:0]
				g := agents[i].settleLate(rep, round, got)
				w := oracle.late(rep, round, wantApply)
				if g != w || !slices.Equal(charged, wantCharged) {
					t.Fatalf("seed %d lease %d: round %d settling %s's report for round %d: window says %q charging %v, map books %q charging %v",
						seed, lease, round, rep.Agent, rep.Round, g, charged, w, wantCharged)
				}
				seen[w]++
			}
		}
		for round := 1; round <= nRounds; round++ {
			reconcile(round, 2*round) // Steps, before the engine plans
			shift[round] = shift[round-1]
			if rng.Intn(3) == 0 {
				shift[round] = rng.Intn(nAgents)
			}
			planned := make([]bool, nAgents)
			for i := range agents {
				a := &agents[i]
				if a.acked != oracle.appliedRound[a.name] {
					t.Fatalf("seed %d lease %d: round %d plan for %s acks %d, map books %d",
						seed, lease, round, a.name, a.acked, oracle.appliedRound[a.name])
				}
				if rng.Intn(6) == 0 {
					continue // nothing placed there this round
				}
				planned[i] = true
				s := a.open(round)
				for k := 1; k <= 6; k++ {
					if k > 1 && rng.Intn(2) == 0 {
						continue
					}
					pe := plannedEntry{q: core.Quantum{Job: jobOf(job.ID(10*group(i, round) + k))}, frac: 1}
					if rng.Intn(5) == 0 {
						pe.frac = 0.5
					}
					s.planned = append(s.planned, pe)
					oracle.plan(round, a.name, pe)
				}
			}
			oracle.slide(round)
			// Collect: a report on time, or withheld and delivered up to
			// two rounds past the lease later (beside newer on-time
			// reports, as a backlog does); and replays of rounds from
			// anywhere around the window, sometimes twice.
			for i := range agents {
				a := &agents[i]
				switch {
				case planned[i] && rng.Intn(3) > 0:
					a.counted(a.at(round))
					oracle.markApplied(a.name, round)
					planned := a.at(round).planned
					for k := range planned {
						if pe := &planned[k]; pe.frac >= 1 {
							pe.q.Answered, want[pe.q.Job.ID] = true, round
						}
					}
				case planned[i]:
					arrive(2*(round+1)+rng.Intn(2*lease+4), lateReport(i, round))
				}
				if rng.Intn(3) == 0 {
					rep := lateReport(i, round-rng.Intn(lease+4))
					for n := 1 + rng.Intn(3)/2; n > 0; n-- {
						arrive(2*round+1+rng.Intn(4), rep)
					}
				}
			}
			reconcile(round, 2*round+1) // Execute, after collect
		}
	}
	for _, event := range []string{"", "late_report_applied", "late_report_dropped"} {
		if seen[event] < 50 {
			t.Errorf("only %d late reports settled as %q: the sequences miss a case (%v)", seen[event], event, seen)
		}
	}
	t.Logf("late reports settled: %v", seen)
}

// TestOnTimeAnswerFencesOlderLateReport: a job's round-4 report from
// agent-1 arrives late, after the job moved to agent-0 and was answered
// on time there in round 5 without progress. The late answer would
// charge round 4 on top of round 5, so it is dropped: mergeShards
// records round 5's answer in agent-0's window, and applyLate finds it
// there.
func TestOnTimeAnswerFencesOlderLateReport(t *testing.T) {
	c := leasedCentral(t, 2, 2)
	j := &job.Job{Spec: job.Spec{ID: 7}}
	old := c.agents[1].open(4)
	old.planned = append(old.planned, plannedEntry{q: core.Quantum{Job: j}, frac: 1})

	a := &c.agents[0]
	a.shards = []shard{{rec: 0, lo: 0, hi: 1, frac: 1, got: true}}
	now := a.open(5)
	now.planned = append(now.planned, plannedEntry{q: core.Quantum{Job: j}, frac: 1})
	c.quanta = []core.Quantum{{Job: j}}
	c.mergeShards(5)
	if !c.quanta[0].Answered || !now.planned[0].q.Answered {
		t.Fatalf("round 5's on-time answer: quantum answered %v, window entry answered %v; want both",
			c.quanta[0].Answered, now.planned[0].q.Answered)
	}

	late := comm.RoundReport{Agent: "agent-1", Round: 4, Jobs: []comm.JobProgress{{JobID: 7}}}
	if event := c.agents[1].settleLate(late, 6, c.applyLate); event != "late_report_dropped" {
		t.Errorf("round-4 report after round 5 answered the job: %q, want late_report_dropped", event)
	}
}

// TestNegativeSettingsRefused: the central's operational settings are
// counts and spans, zero or more (zero takes the default), so both ways
// to build a central refuse a negative lease, report timeout, snapshot
// period or timeout budget.
func TestNegativeSettingsRefused(t *testing.T) {
	specs, err := workload.AssignIDs(workload.BatchJobs("alice", zoo.MustGet("lstm"), 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := comm.NewHub().Attach("central")
	if err != nil {
		t.Fatal(err)
	}
	st := &State{Epoch: 1, Engine: &core.Checkpoint{Pending: specs},
		Agents: []AgentState{{Name: "agent-0", Gen: int(gpu.K80), GPUs: 1}}}
	for _, tc := range []struct {
		name string
		cfg  CentralConfig
	}{
		{"LeaseRounds", CentralConfig{LeaseRounds: -1}},
		{"ReportTimeout", CentralConfig{ReportTimeout: -time.Second}},
		{"SnapshotEvery", CentralConfig{SnapshotEvery: -3}},
		{"MaxAgentTimeouts", CentralConfig{MaxAgentTimeouts: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Specs = specs
			if c, err := NewCentral(tr, core.MustNewFairPolicy(core.FairConfig{}), cfg); err == nil || c != nil {
				t.Errorf("NewCentral: central %v, error %v; want an error", c != nil, err)
			}
			if c, err := RestoreCentral(tr, core.MustNewFairPolicy(core.FairConfig{}), cfg, st); err == nil || c != nil {
				t.Errorf("RestoreCentral: central %v, error %v; want an error", c != nil, err)
			}
		})
	}
	// The same snapshot restores under the zero settings, so the refusals
	// above are the settings'.
	if _, err := RestoreCentral(tr, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{}, st); err != nil {
		t.Errorf("RestoreCentral with zero settings: %v", err)
	}
}
