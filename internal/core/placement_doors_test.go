package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// scriptPolicy requests a random, capacity-respecting subset of the
// runnable jobs in a random order, mostly where each last ran: jobs sit
// rounds out and come back to find someone else where they were.
type scriptPolicy struct{ rng *rand.Rand }

func (p *scriptPolicy) Name() string         { return "script" }
func (p *scriptPolicy) Executed(*ExecReport) {}
func (p *scriptPolicy) JobFinished(job.ID)   {}
func (p *scriptPolicy) Decide(st *RoundState) Decision {
	var remaining [gpu.NumGenerations]int
	for g, c := range st.CapacityByGen() {
		remaining[g] = c
	}
	gens := st.Cluster.GensPresent()
	var run []placement.Request
	for _, j := range st.Jobs {
		if p.rng.Float64() < 0.3 {
			continue
		}
		g, ran := j.LastGen()
		if !ran || p.rng.Float64() < 0.1 {
			g = gens[p.rng.Intn(len(gens))]
		}
		if j.Perf.FitsOn(g) && remaining[g] >= j.Gang {
			remaining[g] -= j.Gang
			run = append(run, placement.Request{Job: j, Gen: g})
		}
	}
	p.rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
	return Decision{Run: run}
}

// lossyExecutor answers like the simulated executor, then loses some
// answers; the test hands them to ApplyLate after the round closed, as
// the distributed central does with a cut-off agent's report.
type lossyExecutor struct {
	rng  *rand.Rand
	late []Quantum
}

func (x *lossyExecutor) Execute(round int, qs []Quantum) error {
	if err := (LocalExecutor{}).Execute(round, qs); err != nil {
		return err
	}
	for i := range qs {
		if x.rng.Float64() < 0.2 {
			x.late = append(x.late, qs[i])
			qs[i].Answered = false
		}
	}
	return nil
}

// seamCheck sits on the engine's placement seam. Before the maintained
// index places a round it runs the from-scratch oracle on the same
// requests, from a prev table the test keeps by the engine's merge rule
// without looking at the jobs' records, and afterwards compares.
type seamCheck struct {
	t       *testing.T
	s       *Sim
	prev    placement.Assignment
	unavail gpu.ServerSet

	tookHeld, pinnedOut int
}

//gflint:noretain
func (k *seamCheck) place(unavail *gpu.ServerSet, reqs []placement.Request, opts placement.Options) *placement.Round {
	t, s := k.t, k.s
	if got := s.Placement(); !assignmentsEqual(got, k.prev) {
		t.Fatalf("round %d: the records say %v, the merge rule %v", s.rounds, got, k.prev)
	}
	unavail.ForEach(func(sid gpu.ServerID) bool {
		if !k.unavail.Has(sid) {
			for _, d := range s.cfg.Cluster.Server(sid).Devices {
				for _, j := range s.jobs {
					if j.HoldSlot() != 0 && slices.Contains(j.Devices(), d) {
						k.tookHeld++
					}
				}
			}
		}
		return true
	})
	k.unavail.CopyFrom(unavail)
	ref := opts
	ref.Down = unavail
	want := placement.Place(s.cfg.Cluster, k.prev, reqs, ref)
	got := s.placeIndexed(unavail, reqs, opts)
	var moved, unplaced []job.ID
	for i, r := range reqs {
		id := r.Job.ID
		switch got.Marks[i] {
		case placement.Unplaced:
			unplaced = append(unplaced, id)
			if r.Job.Pinned() && len(k.prev[id]) > 0 {
				k.pinnedOut++
			}
			continue
		case placement.Moved:
			moved = append(moved, id)
		}
		if !slices.Equal(r.Job.Devices(), want.Assignment[id]) {
			t.Fatalf("round %d: job %d on %v, reference %v", s.rounds, id, r.Job.Devices(), want.Assignment[id])
		}
	}
	slices.Sort(moved)
	slices.Sort(unplaced)
	if !slices.Equal(moved, want.Migrated) || !slices.Equal(unplaced, want.Unplaced) || len(want.Assignment)+len(unplaced) != len(reqs) {
		t.Fatalf("round %d: moved %v unplaced %v, reference %v and %v", s.rounds, moved, unplaced, want.Migrated, want.Unplaced)
	}
	return got
}

func assignmentsEqual(a, b placement.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for id, devs := range a {
		if !slices.Equal(devs, b[id]) {
			return false
		}
	}
	return true
}

// TestEngineDoorsMatchPlace drives the engine's own doors onto the
// persistent placement — retireJob from the sweep and from ApplyLate
// between rounds, failed migrations and the pins they earn, quanta
// nobody answered for, declared outages taking servers from under
// holders and returning them, migration disabled, and a Checkpoint →
// Restore in mid-run — and holds every round's placement to
// placement.Place run on a prev table kept by the merge rule alone
// (dispatched: the new devices; unplaced or not requested: the old
// ones; finished: gone).
func TestEngineDoorsMatchPlace(t *testing.T) {
	var tookHeld, pinnedOut, failedMoves, lateRetired, unanswered, restored int
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		cluster := gpu.MustNew(
			gpu.Spec{Gen: gpu.K80, Servers: 4, GPUsPerSrv: 4},
			gpu.Spec{Gen: gpu.V100, Servers: 3, GPUsPerSrv: 4},
		)
		var specs []job.Spec
		for _, gang := range []int{1, 1, 2, 2, 3, 4} {
			specs = append(specs, workload.BatchJobs(job.UserID("u"+string(rune('a'+gang))), zoo.MustGet("vae"), 3, gang, 0.2+rng.Float64())...)
		}
		specs, _ = workload.AssignIDs(specs)
		for i := range specs {
			specs[i].Arrival = simclock.Time(rng.Intn(6) * 360)
		}
		var failures []Failure
		for i := 0; i < 5; i++ {
			failures = append(failures, Failure{
				Server:   gpu.ServerID(rng.Intn(cluster.NumServers())),
				At:       simclock.Time((2 + rng.Intn(30)) * 360),
				Duration: simclock.Duration(1+rng.Intn(4)) * 360,
			})
		}
		cfg := Config{
			Cluster: cluster, Specs: specs, Seed: int64(trial), Failures: failures,
			Faults:           &faults.Config{MigrationFailProb: 0.4},
			DisableMigration: trial%4 == 3,
		}
		policy := &scriptPolicy{rng: rng}
		exec := &lossyExecutor{rng: rng}
		prof, err := profiler.New(0.03, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWithExecutor(cfg, policy, exec, prof)
		if err != nil {
			t.Fatal(err)
		}
		chk := &seamCheck{t: t, s: s, prev: placement.Assignment{}}
		s.place = chk.place

		for round := 0; round < 40; round++ {
			ran, err := s.Step(simclock.Time(1000 * simclock.Hour))
			if err != nil {
				t.Fatal(err)
			}
			if !ran {
				break
			}
			failedMoves += len(s.migFailedBuf)
			// The merge rule, from what the round dispatched.
			for i := range s.quanta {
				q := &s.quanta[i]
				chk.prev[q.Job.ID] = q.Devs
				if !q.Answered {
					unanswered++
				}
			}
			// Late answers, outside the sweep; one may finish its job.
			for i := range exec.late {
				q := &exec.late[i]
				if q.Job.Finished() {
					continue
				}
				q.DoneMB = max(q.DoneMB, q.Job.DoneMB())
				s.ApplyLate(q)
				if q.Job.Finished() {
					lateRetired++
				}
			}
			exec.late = exec.late[:0]
			for id := range chk.prev {
				if _, active := slices.BinarySearchFunc(s.jobs, id, func(j *job.Job, id job.ID) int { return cmp.Compare(j.ID, id) }); !active {
					delete(chk.prev, id)
				}
			}
			if round == 15+trial {
				restored++
				cp := s.Checkpoint()
				if s, err = Restore(cfg, policy, exec, prof, cp); err != nil {
					t.Fatal(err)
				}
				chk.s = s
				chk.unavail.Clear()
				s.place = chk.place
			}
		}
		if res := s.Result(); !res.Audit.Clean() {
			t.Fatalf("trial %d: %s", trial, res.Audit.Summary())
		}
		tookHeld += chk.tookHeld
		pinnedOut += chk.pinnedOut
	}
	t.Logf("%d held devices lost to outages, %d failed migrations, %d pinned jobs left out, %d jobs retired by a late answer, %d quanta unanswered, %d restores",
		tookHeld, failedMoves, pinnedOut, lateRetired, unanswered, restored)
	if tookHeld == 0 || failedMoves == 0 || pinnedOut == 0 || lateRetired == 0 || unanswered == 0 || restored == 0 {
		t.Error("a door was never driven")
	}
}
