package placement

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"

	"repro/internal/gpu"
	"repro/internal/job"
)

// refValidate is Validate as it was before the owner table: a fresh
// map from device to holder per call. It visits jobs in the given
// order, which pins "the first violation" for the comparison.
func refValidate(c *gpu.Cluster, order []job.ID, a Assignment) error {
	used := make(map[gpu.DeviceID]job.ID)
	for _, id := range order {
		devs := a[id]
		if len(devs) == 0 {
			return fmt.Errorf("placement: job %d assigned zero devices", id)
		}
		for _, d := range devs {
			if int(d) < 0 || int(d) >= c.NumDevices() {
				return fmt.Errorf("placement: job %d holds unknown device %d", id, d)
			}
		}
		gen := c.Device(devs[0]).Gen
		for _, d := range devs {
			if c.Device(d).Gen != gen {
				return fmt.Errorf("placement: job %d mixes generations", id)
			}
			if prev, dup := used[d]; dup {
				return fmt.Errorf("placement: device %d assigned to jobs %d and %d", d, prev, id)
			}
			used[d] = id
		}
	}
	return nil
}

// refServers is the map-based server set ServersUsed and sameServers
// were built on.
func refServers(c *gpu.Cluster, devs []gpu.DeviceID) map[gpu.ServerID]bool {
	m := make(map[gpu.ServerID]bool, len(devs))
	for _, d := range devs {
		m[c.Device(d).Server] = true
	}
	return m
}

func refSameServers(c *gpu.Cluster, a, b []gpu.DeviceID) bool {
	sa, sb := refServers(c, a), refServers(c, b)
	if len(sa) != len(sb) {
		return false
	}
	for s := range sa {
		if !sb[s] {
			return false
		}
	}
	return true
}

// randomAssignment deals disjoint single-generation device sets to a
// few jobs, shuffles some of them out of order, and then corrupts at
// most one job (several corruptions may stack on it) or makes two jobs
// share devices. Keeping the damage to one job — or one pair — makes
// the first violation independent of the order Validate walks the map
// in, up to which of the pair is met first.
func randomAssignment(rng *rand.Rand, c *gpu.Cluster) Assignment {
	a := Assignment{}
	gens := c.GensPresent()
	free := map[gpu.Generation][]gpu.DeviceID{}
	for _, g := range gens {
		free[g] = slices.Clone(c.DevicesOf(g))
	}
	njobs := 1 + rng.Intn(6)
	for id := job.ID(1); int(id) <= njobs; id++ {
		g := gens[rng.Intn(len(gens))]
		n := 1 + rng.Intn(5)
		if n > len(free[g]) {
			continue
		}
		// A contiguous run or a strided pick: one server or several.
		var devs []gpu.DeviceID
		if rng.Intn(2) == 0 {
			devs, free[g] = slices.Clone(free[g][:n]), free[g][n:]
		} else {
			rng.Shuffle(len(free[g]), func(i, k int) { free[g][i], free[g][k] = free[g][k], free[g][i] })
			devs, free[g] = slices.Clone(free[g][:n]), free[g][n:]
			slices.Sort(devs)
			slices.Sort(free[g])
		}
		if rng.Intn(3) == 0 { // unsorted device slice: legal for Validate
			rng.Shuffle(len(devs), func(i, k int) { devs[i], devs[k] = devs[k], devs[i] })
		}
		a[id] = devs
	}
	ids := job.SortedIDs(a)
	if len(ids) == 0 {
		return a
	}
	victim := ids[rng.Intn(len(ids))]
	switch rng.Intn(4) {
	case 0: // valid
	case 1: // two jobs share one or two devices
		if len(ids) < 2 {
			break
		}
		other := ids[rng.Intn(len(ids))]
		if other == victim {
			break
		}
		src := a[other]
		for k := 0; k <= rng.Intn(2) && k < len(src) && k < len(a[victim]); k++ {
			if c.Device(src[k]).Gen == c.Device(a[victim][0]).Gen {
				a[victim][len(a[victim])-1-k] = src[k]
			}
		}
	default: // stack corruptions on the victim
		for _, kind := range rng.Perm(4)[:1+rng.Intn(3)] {
			devs := a[victim]
			switch kind {
			case 0: // zero devices
				a[victim] = nil
			case 1: // out-of-range device, either side
				if len(devs) > 0 {
					bad := gpu.DeviceID(c.NumDevices() + rng.Intn(3))
					if rng.Intn(2) == 0 {
						bad = gpu.DeviceID(-1 - rng.Intn(3))
					}
					devs[rng.Intn(len(devs))] = bad
				}
			case 2: // mixed generations
				if len(devs) > 1 && len(gens) > 1 {
					for _, g := range gens {
						if d := devs[0]; int(d) >= 0 && int(d) < c.NumDevices() && c.Device(d).Gen != g {
							devs[len(devs)-1] = c.DevicesOf(g)[rng.Intn(len(c.DevicesOf(g)))]
							break
						}
					}
				}
			case 3: // the same device twice within the job
				if len(devs) > 1 {
					devs[len(devs)-1] = devs[0]
				}
			}
		}
	}
	return a
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestValidateMatchesMapReference feeds randomized assignments —
// valid, shared devices, out-of-range devices, mixed generations, zero
// devices, unsorted slices — to Validate over one long-lived owner
// table and to the map-based reference, and requires the same
// violation with the same first offender.
func TestValidateMatchesMapReference(t *testing.T) {
	kinds := map[string]int{} // outcomes seen, numbers dropped
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		c := gpu.MustNew(
			gpu.Spec{Gen: gpu.K80, Servers: 1 + rng.Intn(4), GPUsPerSrv: 1 + rng.Intn(4)},
			gpu.Spec{Gen: gpu.V100, Servers: 1 + rng.Intn(4), GPUsPerSrv: 1 + rng.Intn(4)},
		)
		owners := NewOwners(c) // reused: stale claims of an aborted pass must not leak
		for n := 0; n < 250; n++ {
			a := randomAssignment(rng, c)
			asc := job.SortedIDs(a)
			desc := slices.Clone(asc)
			slices.Reverse(desc)
			// Two jobs sharing a device are reported in the order they are
			// met; every other violation reads the same either way.
			want1, want2 := errString(refValidate(c, asc, a)), errString(refValidate(c, desc, a))
			got := errString(owners.Validate(a))
			if got != want1 && got != want2 {
				t.Fatalf("trial %d case %d: Owners.Validate(%v) = %q, reference %q / %q", trial, n, a, got, want1, want2)
			}
			if fresh := errString(Validate(c, a)); (fresh == "<nil>") != (got == "<nil>") {
				t.Fatalf("trial %d case %d: Validate = %q but Owners.Validate = %q", trial, n, fresh, got)
			}
			kinds[strings.Map(func(r rune) rune {
				if unicode.IsDigit(r) || r == '-' {
					return -1
				}
				return r
			}, got)]++

			for _, id := range asc {
				devs := a[id]
				if slices.ContainsFunc(devs, func(d gpu.DeviceID) bool { return int(d) < 0 || int(d) >= c.NumDevices() }) {
					continue // no server to look up, in either implementation
				}
				if got, want := ServersUsed(c, devs), len(refServers(c, devs)); got != want {
					t.Fatalf("trial %d: ServersUsed(%v) = %d, reference %d", trial, devs, got, want)
				}
				other := a[asc[rng.Intn(len(asc))]]
				if slices.ContainsFunc(other, func(d gpu.DeviceID) bool { return int(d) < 0 || int(d) >= c.NumDevices() }) {
					continue
				}
				if got, want := sameServers(c, devs, other), refSameServers(c, devs, other); got != want {
					t.Fatalf("trial %d: sameServers(%v, %v) = %v, reference %v", trial, devs, other, got, want)
				}
			}
		}
	}
	if len(kinds) != 5 { // valid, zero devices, unknown device, mixed generations, shared device
		t.Errorf("generator covered %d outcome kinds, want 5: %v", len(kinds), kinds)
	}
}

// TestOwnersEpochWrap checks the pass counter wrapping around: stale
// stamps from four billion passes ago must not read as current claims.
func TestOwnersEpochWrap(t *testing.T) {
	c := smallCluster()
	o := NewOwners(c)
	a := Assignment{1: {0, 1}, 2: {2}}
	o.epoch = math.MaxUint32 - 1
	for pass := 0; pass < 4; pass++ {
		if err := o.Validate(a); err != nil {
			t.Fatalf("pass %d (epoch %d): valid assignment rejected: %v", pass, o.epoch, err)
		}
	}
	if err := o.Validate(Assignment{1: {0, 1}, 2: {1}}); err == nil {
		t.Fatal("shared device accepted after the epoch wrapped")
	}
}
