package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
	"repro/internal/workload"
)

type auditFinding struct{ invariant, detail string }

// refCheckAssignment is the auditor's placement check as it was before
// the shared owner table: a fresh device→holder map and a width map
// per call, over the assignment map and the active map. It walks jobs
// and generations in ascending order — the order the engine's execute
// list gives the real one — and returns the checks counted and every
// violation in occurrence order.
func refCheckAssignment(c *gpu.Cluster, asg placement.Assignment, active map[job.ID]*job.Job,
	caps map[gpu.Generation]int, down, quarantined map[gpu.ServerID]bool) (checks int, out []auditFinding) {
	violate := func(inv, format string, args ...any) {
		out = append(out, auditFinding{inv, fmt.Sprintf(format, args...)})
	}
	used := make(map[gpu.DeviceID]job.ID, len(asg))
	width := make(map[gpu.Generation]int)
	for _, id := range job.SortedIDs(asg) {
		devs := asg[id]
		j := active[id]
		checks++
		if len(devs) != j.Gang {
			violate(InvGang, "job %d holds %d devices, gang is %d", id, len(devs), j.Gang)
		}
		var gen gpu.Generation
		if len(devs) > 0 {
			gen = c.Device(devs[0]).Gen
			width[gen] += len(devs)
		}
		for _, d := range devs {
			dev := c.Device(d)
			checks++
			if dev.Gen != gen {
				violate(InvGang, "job %d spans generations %v and %v", id, gen, dev.Gen)
			}
			if prev, dup := used[d]; dup {
				violate(InvDoublePlace, "device %d held by jobs %d and %d", d, prev, id)
			}
			used[d] = id
			if down[dev.Server] {
				violate(InvDownServer, "job %d placed on failed server %d (device %d)", id, dev.Server, d)
			}
			if quarantined[dev.Server] {
				violate(InvQuarantine, "job %d placed on quarantined server %d (device %d)", id, dev.Server, d)
			}
		}
		if len(devs) > 0 && !j.Perf.FitsOn(gen) {
			violate(InvGang, "job %d (%s) placed on unusable generation %v", id, j.Perf.Model, gen)
		}
	}
	for _, g := range gpu.Generations() {
		w, ok := width[g]
		if !ok {
			continue
		}
		checks++
		if w > caps[g] {
			violate(InvCapacity, "%d GPUs placed on %v, capacity %d", w, g, caps[g])
		}
	}
	return checks, out
}

// TestCheckAssignmentMatchesMapReference feeds the auditor randomized
// rounds — valid placements, devices shared across and within jobs,
// mixed generations, zero or too few devices, unsorted slices,
// unusable generations, down and quarantined servers, overcommitted
// capacity — through one long-lived owner table and requires the
// check count and the violations (kind, detail, order) of the
// map-based reference. Out-of-range devices are placement.Validate's
// to reject: the engine never audits an assignment that failed it, and
// neither implementation can look such a device up.
func TestCheckAssignmentMatchesMapReference(t *testing.T) {
	zoo := workload.DefaultZoo()
	anyGen := zoo.MustGet("vae")
	v100Only := *anyGen
	v100Only.Model = "v100-only"
	v100Only.RatePerGPU[gpu.K80] = 0

	seen := map[string]int{}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		c := gpu.MustNew(
			gpu.Spec{Gen: gpu.K80, Servers: 1 + rng.Intn(4), GPUsPerSrv: 1 + rng.Intn(4)},
			gpu.Spec{Gen: gpu.V100, Servers: 1 + rng.Intn(4), GPUsPerSrv: 1 + rng.Intn(4)},
		)
		a := newAuditor(AuditCount, c, 360, placement.NewOwners(c))
		for round := 1; round <= 150; round++ {
			// The round's active jobs, in ID order, with gaps in the IDs.
			var jobs []*job.Job
			active := map[job.ID]*job.Job{}
			for id := job.ID(1); len(jobs) < 1+rng.Intn(6); id += job.ID(1 + rng.Intn(3)) {
				perf := anyGen
				if rng.Intn(4) == 0 {
					perf = &v100Only
				}
				j, err := job.New(job.Spec{ID: id, User: "u", Perf: perf, Gang: 1 + rng.Intn(4), TotalMB: 1000})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
				active[id] = j
			}
			// Deal devices: mostly disjoint and right-sized, sometimes not.
			pool := map[gpu.Generation][]gpu.DeviceID{
				gpu.K80: slices.Clone(c.DevicesOf(gpu.K80)), gpu.V100: slices.Clone(c.DevicesOf(gpu.V100)),
			}
			asg := placement.Assignment{}
			var placed []Quantum
			for pos, j := range jobs {
				if rng.Intn(5) == 0 {
					continue // not placed this round
				}
				g := []gpu.Generation{gpu.K80, gpu.V100}[rng.Intn(2)]
				n := min(j.Gang, len(pool[g]))
				devs := slices.Clone(pool[g][:n])
				if rng.Intn(3) > 0 {
					pool[g] = pool[g][n:] // otherwise the next job on g shares them
				}
				switch rng.Intn(8) {
				case 0: // zero devices
					devs = nil
				case 1: // short of the gang
					devs = devs[:len(devs)/2]
				case 2: // a device of the other generation
					if other := c.DevicesOf(gpu.K80 + gpu.V100 - g); len(devs) > 0 {
						devs[len(devs)-1] = other[rng.Intn(len(other))]
					}
				case 3: // the same device twice
					if len(devs) > 1 {
						devs[len(devs)-1] = devs[0]
					}
				case 4: // unsorted
					rng.Shuffle(len(devs), func(i, k int) { devs[i], devs[k] = devs[k], devs[i] })
				}
				asg[j.ID] = devs
				placed = append(placed, Quantum{Job: j, Devs: devs, pos: pos})
			}
			caps := c.CapacityByGen()
			if rng.Intn(4) == 0 {
				caps[gpu.K80] = rng.Intn(caps[gpu.K80] + 1) // capacity lost to outages
			}
			var down, quar map[gpu.ServerID]bool
			var downSet, quarSet gpu.ServerSet
			if rng.Intn(3) == 0 {
				sid := gpu.ServerID(rng.Intn(c.NumServers()))
				down = map[gpu.ServerID]bool{sid: true}
				downSet.Add(sid)
			}
			if rng.Intn(3) == 0 {
				sid := gpu.ServerID(rng.Intn(c.NumServers()))
				quar = map[gpu.ServerID]bool{sid: true}
				quarSet.Add(sid)
			}

			wantChecks, want := refCheckAssignment(c, asg, active, caps, down, quar)

			a.rep.Violations = a.rep.Violations[:0] // keep every round under the recording cap
			a.beginRound(round, 0, caps, nil)
			before := a.rep.Checks
			a.checkAssignment(placed, &downSet, &quarSet)
			var got []auditFinding
			for _, v := range a.rep.Violations {
				got = append(got, auditFinding{v.Invariant, v.Detail})
				seen[v.Invariant]++
			}
			if gotChecks := a.rep.Checks - before; gotChecks != wantChecks || !slices.Equal(got, want) {
				t.Fatalf("trial %d round %d: assignment %v (down %v, quarantined %v, caps %v)\n got %d checks %v\nwant %d checks %v",
					trial, round, asg, down, quar, caps, gotChecks, got, wantChecks, want)
			}
		}
	}
	for _, inv := range []string{InvGang, InvDoublePlace, InvDownServer, InvQuarantine, InvCapacity} {
		if seen[inv] == 0 {
			t.Errorf("generator never produced a %s violation", inv)
		}
	}
}
