package placement

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/workload"
)

var zoo = workload.DefaultZoo()

// Clone deep-copies the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for id, devs := range a {
		out[id] = slices.Clone(devs)
	}
	return out
}

func mkJob(id job.ID, gang int) *job.Job {
	return job.MustNew(job.Spec{
		ID: id, User: "u", Perf: zoo.MustGet("resnet50"), Gang: gang, TotalMB: 1e9,
	})
}

func smallCluster() *gpu.Cluster {
	// 2 K80 servers × 4, 2 V100 servers × 4.
	return gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 2, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 2, GPUsPerSrv: 4},
	)
}

func opts() Options { return Options{AllowMigration: true} }

func TestPlaceSimple(t *testing.T) {
	c := smallCluster()
	j := mkJob(1, 4)
	res := Place(c, nil, []Request{{j, gpu.V100}}, opts())
	if len(res.Unplaced) != 0 || len(res.Migrated) != 0 {
		t.Fatalf("unexpected unplaced/migrated: %+v", res)
	}
	devs := res.Assignment[1]
	if len(devs) != 4 {
		t.Fatalf("got %d devices, want 4", len(devs))
	}
	if ServersUsed(c, devs) != 1 {
		t.Errorf("4-gang spans %d servers, want 1", ServersUsed(c, devs))
	}
	for _, d := range devs {
		if c.Device(d).Gen != gpu.V100 {
			t.Errorf("device %d has gen %v, want V100", d, c.Device(d).Gen)
		}
	}
	if err := Validate(c, res.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceStability(t *testing.T) {
	c := smallCluster()
	j := mkJob(1, 2)
	r1 := Place(c, nil, []Request{{j, gpu.K80}}, opts())
	r2 := Place(c, r1.Assignment, []Request{{j, gpu.K80}}, opts())
	if len(r2.Migrated) != 0 {
		t.Fatalf("stable job migrated: %v", r2.Migrated)
	}
	a, b := r1.Assignment[1], r2.Assignment[1]
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("devices changed without need: %v → %v", a, b)
		}
	}
}

func TestPlaceBestFitPacking(t *testing.T) {
	c := smallCluster()
	// j1 takes 3 of server0's K80s; j2 (gang 4) must go to server1;
	// j3 (gang 1) should backfill server0 (best fit), not fragment
	// server1.
	j1, j2, j3 := mkJob(1, 3), mkJob(2, 4), mkJob(3, 1)
	res := Place(c, nil, []Request{{j1, gpu.K80}, {j2, gpu.K80}, {j3, gpu.K80}}, opts())
	if len(res.Unplaced) != 0 {
		t.Fatalf("unplaced: %v", res.Unplaced)
	}
	s1 := c.Device(res.Assignment[1][0]).Server
	s3 := c.Device(res.Assignment[3][0]).Server
	if s1 != s3 {
		t.Errorf("1-GPU job placed on server %d, want backfill on %d", s3, s1)
	}
	if err := Validate(c, res.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceSpanningGang(t *testing.T) {
	c := smallCluster() // 8 K80s across 2 servers
	j := mkJob(1, 8)
	res := Place(c, nil, []Request{{j, gpu.K80}}, opts())
	if len(res.Unplaced) != 0 {
		t.Fatalf("8-gang unplaced despite 8 free K80s")
	}
	if n := ServersUsed(c, res.Assignment[1]); n != 2 {
		t.Errorf("spans %d servers, want 2", n)
	}
}

func TestPlaceInsufficientCapacity(t *testing.T) {
	c := smallCluster()
	j := mkJob(1, 9) // only 8 K80s exist
	res := Place(c, nil, []Request{{j, gpu.K80}}, opts())
	if len(res.Unplaced) != 1 || res.Unplaced[0] != 1 {
		t.Fatalf("Unplaced = %v, want [1]", res.Unplaced)
	}
	if len(res.Assignment) != 0 {
		t.Fatalf("assignment nonempty: %v", res.Assignment)
	}
}

func TestPlaceBigGangsFirst(t *testing.T) {
	c := smallCluster()
	// Capacity 8 K80. Requests: 4×1-GPU + 1×4-GPU + 1×2-GPU = 10 > 8.
	// Big-first placement must place the 4-gang and 2-gang; two 1-GPU
	// jobs fill the rest, and the remaining two are unplaced.
	reqs := []Request{
		{mkJob(10, 1), gpu.K80}, {mkJob(11, 1), gpu.K80},
		{mkJob(12, 1), gpu.K80}, {mkJob(13, 1), gpu.K80},
		{mkJob(1, 4), gpu.K80}, {mkJob(2, 2), gpu.K80},
	}
	res := Place(c, nil, reqs, opts())
	if _, ok := res.Assignment[1]; !ok {
		t.Error("4-gang not placed")
	}
	if _, ok := res.Assignment[2]; !ok {
		t.Error("2-gang not placed")
	}
	if len(res.Unplaced) != 2 {
		t.Errorf("Unplaced = %v, want two 1-GPU jobs", res.Unplaced)
	}
	if err := Validate(c, res.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationDetection(t *testing.T) {
	c := smallCluster()
	jBig := mkJob(1, 4)
	jSmall := mkJob(2, 1)
	// Round 1: small job on K80 (server 0 or 1).
	r1 := Place(c, nil, []Request{{jSmall, gpu.K80}}, opts())
	// Round 2: move small job to V100 — a generation change is always
	// a server change here.
	r2 := Place(c, r1.Assignment, []Request{{jSmall, gpu.V100}, {jBig, gpu.K80}}, opts())
	if len(r2.Migrated) != 1 || r2.Migrated[0] != 2 {
		t.Fatalf("Migrated = %v, want [2]", r2.Migrated)
	}
}

func TestNoMigrationOptionStrandsGenerationChange(t *testing.T) {
	c := smallCluster()
	j := mkJob(1, 2)
	r1 := Place(c, nil, []Request{{j, gpu.K80}}, opts())
	// The scheduler now wants the job on V100 (e.g., after a trade).
	// Without migration the job is pinned to its K80 server and
	// cannot follow the allocation.
	res := Place(c, r1.Assignment, []Request{{j, gpu.V100}}, Options{AllowMigration: false})
	if len(res.Unplaced) != 1 || res.Unplaced[0] != 1 {
		t.Fatalf("no-migration: Unplaced = %v, want [1]", res.Unplaced)
	}
	// With migration the same request succeeds and is flagged.
	res2 := Place(c, r1.Assignment, []Request{{j, gpu.V100}}, opts())
	if len(res2.Unplaced) != 0 {
		t.Fatalf("with migration: Unplaced = %v", res2.Unplaced)
	}
	if len(res2.Migrated) != 1 || res2.Migrated[0] != 1 {
		t.Fatalf("Migrated = %v, want [1]", res2.Migrated)
	}
}

func TestSpanningDefragmentsViaSharedPool(t *testing.T) {
	// 2 servers × 2 K80. Two pinned 1-GPU jobs on different servers
	// leave one free GPU per server; a 2-gang still runs by spanning,
	// paying the cross-server penalty instead of being stranded.
	c := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 2, GPUsPerSrv: 2})
	prev := Assignment{
		1: {c.Server(0).Devices[0]},
		2: {c.Server(1).Devices[0]},
	}
	j1, j2, j3 := mkJob(1, 1), mkJob(2, 1), mkJob(3, 2)
	res := Place(c, prev, []Request{{j1, gpu.K80}, {j2, gpu.K80}, {j3, gpu.K80}},
		Options{AllowMigration: false})
	if len(res.Unplaced) != 0 {
		t.Fatalf("Unplaced = %v, want none (spanning)", res.Unplaced)
	}
	if n := ServersUsed(c, res.Assignment[3]); n != 2 {
		t.Errorf("2-gang spans %d servers, want 2", n)
	}
	if err := Validate(c, res.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestPreferPreviousServerOnReplacement(t *testing.T) {
	c := smallCluster()
	j := mkJob(1, 2)
	r1 := Place(c, nil, []Request{{j, gpu.K80}}, opts())
	srv := c.Device(r1.Assignment[1][0]).Server
	// Same server, but pretend the job now needs different local GPUs
	// by occupying its old ones with another job of equal gang—
	// actually simpler: grow the gang so prev devices no longer match.
	jBig := mkJob(1, 3)
	r2 := Place(c, r1.Assignment, []Request{{jBig, gpu.K80}}, opts())
	if len(r2.Migrated) != 0 {
		t.Fatalf("intra-server reshuffle flagged as migration: %v", r2.Migrated)
	}
	if got := c.Device(r2.Assignment[1][0]).Server; got != srv {
		t.Errorf("job moved to server %d, want to stay on %d", got, srv)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := smallCluster()
	if err := Validate(c, Assignment{1: {}}); err == nil {
		t.Error("empty device list validated")
	}
	if err := Validate(c, Assignment{1: {0, 1}, 2: {1, 2}}); err == nil {
		t.Error("double-booked device validated")
	}
	if err := Validate(c, Assignment{1: {0, 8}}); err == nil {
		t.Error("mixed-generation gang validated") // 0 is K80, 8 is V100
	}
	if err := Validate(c, Assignment{1: {999}}); err == nil {
		t.Error("unknown device validated")
	}
}

// Property: with an unchanged request set, repeated placement is
// perfectly stable — after round one, no job ever moves.
func TestPropertyStability(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		c := gpu.MustNew(
			gpu.Spec{Gen: gpu.K80, Servers: 1 + rng.Intn(4), GPUsPerSrv: 2 + rng.Intn(3)},
		)
		var reqs []Request
		budget := c.NumDevices()
		id := job.ID(1)
		for budget > 0 {
			gang := 1 + rng.Intn(3)
			if gang > budget {
				gang = budget
			}
			reqs = append(reqs, Request{mkJob(id, gang), gpu.K80})
			id++
			budget -= gang
		}
		prev := Assignment{}
		var first Assignment
		for round := 0; round < 4; round++ {
			res := Place(c, prev, reqs, opts())
			if len(res.Unplaced) != 0 {
				t.Fatalf("trial %d: unplaced %v in a fitting set", trial, res.Unplaced)
			}
			if round == 0 {
				first = res.Assignment.Clone()
			} else {
				if len(res.Migrated) != 0 {
					t.Fatalf("trial %d round %d: spurious migrations %v", trial, round, res.Migrated)
				}
				for jid, devs := range res.Assignment {
					for i, d := range devs {
						if first[jid][i] != d {
							t.Fatalf("trial %d: job %d devices changed %v → %v",
								trial, jid, first[jid], devs)
						}
					}
				}
			}
			prev = res.Assignment
		}
	}
}

// Property: random rounds over random clusters always produce valid,
// capacity-respecting assignments, and every unplaced job genuinely
// has no single-generation fit remaining... (weaker: total placed per
// generation never exceeds capacity).
func TestPropertyPlaceValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		c := gpu.MustNew(
			gpu.Spec{Gen: gpu.K80, Servers: 1 + rng.Intn(3), GPUsPerSrv: 1 + rng.Intn(4)},
			gpu.Spec{Gen: gpu.V100, Servers: 1 + rng.Intn(3), GPUsPerSrv: 1 + rng.Intn(4)},
		)
		prev := Assignment{}
		var reqs []Request
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			g := gpu.K80
			if rng.Intn(2) == 0 {
				g = gpu.V100
			}
			reqs = append(reqs, Request{mkJob(job.ID(i+1), 1+rng.Intn(5)), g})
		}
		// Two consecutive rounds to exercise stability paths.
		for round := 0; round < 2; round++ {
			res := Place(c, prev, reqs, opts())
			if err := Validate(c, res.Assignment); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			for _, r := range reqs {
				_, placed := res.Assignment[r.Job.ID]
				unplaced := false
				for _, id := range res.Unplaced {
					if id == r.Job.ID {
						unplaced = true
					}
				}
				if placed == unplaced {
					t.Fatalf("trial %d: job %d neither or both placed/unplaced", trial, r.Job.ID)
				}
				if placed && len(res.Assignment[r.Job.ID]) != r.Job.Gang {
					t.Fatalf("trial %d: job %d got %d devices, want %d",
						trial, r.Job.ID, len(res.Assignment[r.Job.ID]), r.Job.Gang)
				}
			}
			prev = res.Assignment
		}
	}
}
