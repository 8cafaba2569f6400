package gpu

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGenerationString(t *testing.T) {
	cases := map[Generation]string{
		K80: "K80", P40: "P40", P100: "P100", V100: "V100",
		Generation(99): "Generation(99)",
	}
	for g, want := range cases {
		if got := g.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(g), got, want)
		}
	}
}

func TestParseGeneration(t *testing.T) {
	for _, g := range Generations() {
		got, err := ParseGeneration(g.String())
		if err != nil || got != g {
			t.Errorf("ParseGeneration(%q) = %v, %v", g.String(), got, err)
		}
	}
	if _, err := ParseGeneration("TPU"); err == nil {
		t.Error("ParseGeneration(TPU) succeeded, want error")
	}
}

func TestGenerationOrderAndValidity(t *testing.T) {
	if !(K80 < P40 && P40 < P100 && P100 < V100) {
		t.Fatal("generation ordering broken: must go oldest to newest")
	}
	for _, g := range Generations() {
		if !g.Valid() {
			t.Errorf("%v not valid", g)
		}
		if g.MemGB() <= 0 {
			t.Errorf("%v has no memory", g)
		}
	}
	if Generation(-1).Valid() || Generation(100).Valid() {
		t.Error("out-of-range generation reported valid")
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := New(Spec{Gen: K80, Servers: 0, GPUsPerSrv: 4}); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := New(Spec{Gen: K80, Servers: 1, GPUsPerSrv: 0}); err == nil {
		t.Error("zero GPUs accepted")
	}
	if _, err := New(Spec{Gen: Generation(50), Servers: 1, GPUsPerSrv: 1}); err == nil {
		t.Error("invalid generation accepted")
	}
}

func TestDefault200(t *testing.T) {
	c := Default200()
	if c.NumDevices() != 200 {
		t.Fatalf("NumDevices = %d, want 200", c.NumDevices())
	}
	if c.NumServers() != 50 {
		t.Fatalf("NumServers = %d, want 50", c.NumServers())
	}
	want := map[Generation]int{K80: 48, P40: 48, P100: 56, V100: 48}
	got := c.CapacityByGen()
	for g, n := range want {
		if got[g] != n {
			t.Errorf("capacity[%v] = %d, want %d", g, got[g], n)
		}
	}
	if len(c.GensPresent()) != 4 {
		t.Errorf("GensPresent = %v, want 4 generations", c.GensPresent())
	}
}

func TestInventoryConsistency(t *testing.T) {
	c := MustNew(
		Spec{Gen: K80, Servers: 2, GPUsPerSrv: 4},
		Spec{Gen: V100, Servers: 3, GPUsPerSrv: 8},
	)
	// Every device must be reachable through its server and agree on
	// generation.
	seen := make(map[DeviceID]bool)
	for _, srv := range c.Servers() {
		for _, id := range srv.Devices {
			d := c.Device(id)
			if d.Server != srv.ID {
				t.Errorf("device %d claims server %d, listed on %d", id, d.Server, srv.ID)
			}
			if d.Gen != srv.Gen {
				t.Errorf("device %d gen %v on server of gen %v", id, d.Gen, srv.Gen)
			}
			if seen[id] {
				t.Errorf("device %d listed on two servers", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != c.NumDevices() {
		t.Errorf("servers list %d devices, cluster has %d", len(seen), c.NumDevices())
	}
	// DevicesOf must partition the device space.
	total := 0
	for _, g := range Generations() {
		devs := c.DevicesOf(g)
		total += len(devs)
		for _, id := range devs {
			if c.Device(id).Gen != g {
				t.Errorf("DevicesOf(%v) contains device of gen %v", g, c.Device(id).Gen)
			}
		}
	}
	if total != c.NumDevices() {
		t.Errorf("DevicesOf partitions %d devices, want %d", total, c.NumDevices())
	}
	// ServersOf consistency.
	if n := len(c.ServersOf(V100)); n != 3 {
		t.Errorf("ServersOf(V100) = %d servers, want 3", n)
	}
	if n := len(c.ServersOf(P100)); n != 0 {
		t.Errorf("ServersOf(P100) = %d servers, want 0", n)
	}
}

func TestDeviceIDsDense(t *testing.T) {
	c := MustNew(Spec{Gen: P100, Servers: 3, GPUsPerSrv: 2})
	for i := 0; i < c.NumDevices(); i++ {
		if c.Device(DeviceID(i)).ID != DeviceID(i) {
			t.Fatalf("device %d has ID %d", i, c.Device(DeviceID(i)).ID)
		}
	}
}

func TestInvalidGenQueries(t *testing.T) {
	c := Default200()
	if c.DevicesOf(Generation(77)) != nil {
		t.Error("DevicesOf(invalid) != nil")
	}
	if c.Capacity(Generation(-3)) != 0 {
		t.Error("Capacity(invalid) != 0")
	}
}

func TestClusterString(t *testing.T) {
	s := Default200().String()
	want := "cluster{K80:48 P40:48 P100:56 V100:48 | 50 servers}"
	if s != want {
		t.Errorf("String = %q, want %q", s, want)
	}
}

// Property: for any small spec, capacities are servers × gpus and the
// per-generation device lists are sorted ascending.
func TestPropertyCapacity(t *testing.T) {
	f := func(nsrv, ngpu uint8, genRaw uint8) bool {
		ns := int(nsrv%6) + 1
		ng := int(ngpu%8) + 1
		g := Generation(int(genRaw) % NumGenerations)
		c, err := New(Spec{Gen: g, Servers: ns, GPUsPerSrv: ng})
		if err != nil {
			return false
		}
		if c.Capacity(g) != ns*ng {
			return false
		}
		devs := c.DevicesOf(g)
		for i := 1; i < len(devs); i++ {
			if devs[i] <= devs[i-1] {
				return false
			}
		}
		return c.NumServers() == ns
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestServerSetMatchesMapModel drives ServerSets through random adds,
// removes, unions, copies and clears, the same operations on a map
// model beside them, and after each compares membership (word edges
// 0, 63, 64, 127, IDs past the set and negative ones included), the
// count, the ascending walk, an early-stopped walk, a walk that removes
// what it visits and the difference walk against another set.
func TestServerSetMatchesMapModel(t *testing.T) {
	var zero ServerSet
	var none *ServerSet
	for _, id := range []ServerID{-1, 0, 63, 64, 1 << 20} {
		if zero.Has(id) || none.Has(id) {
			t.Fatalf("an empty set has %d", id)
		}
	}
	if zero.Len() != 0 || none.Len() != 0 {
		t.Fatal("an empty set is not empty")
	}
	none.ForEach(func(ServerID) bool { t.Fatal("nil set walked"); return true })
	zero.Remove(5) // beyond the set: a no-op
	zero.Clear()

	members := func(m map[ServerID]bool) []ServerID {
		var out []ServerID
		for id, in := range m {
			if in {
				out = append(out, id)
			}
		}
		slices.Sort(out)
		return out
	}
	probe := []ServerID{-1, 0, 1, 62, 63, 64, 65, 126, 127, 128, 191, 192, 255, 256, 1000}
	rng := rand.New(rand.NewSource(11))
	sets := [2]ServerSet{}
	models := [2]map[ServerID]bool{{}, {}}
	for step := 0; step < 5000; step++ {
		a, b := rng.Intn(2), rng.Intn(2)
		id := probe[1+rng.Intn(len(probe)-1)]
		if rng.Intn(4) == 0 {
			id = ServerID(rng.Intn(300))
		}
		switch op := rng.Intn(20); {
		case op < 9:
			sets[a].Add(id)
			models[a][id] = true
		case op < 16:
			sets[a].Remove(id)
			delete(models[a], id)
		case op < 18:
			sets[a].Union(&sets[b])
			for id := range models[b] {
				models[a][id] = true
			}
		case op < 19:
			sets[a].CopyFrom(&sets[b])
			models[a] = map[ServerID]bool{}
			for id := range models[b] {
				models[a][id] = true
			}
		default:
			sets[a].Clear()
			models[a] = map[ServerID]bool{}
		}

		for k := range sets {
			s, m := &sets[k], models[k]
			for _, id := range probe {
				if s.Has(id) != m[id] {
					t.Fatalf("step %d set %d: Has(%d) = %v, model %v", step, k, id, s.Has(id), m[id])
				}
			}
			want := members(m)
			if s.Len() != len(want) {
				t.Fatalf("step %d set %d: Len %d, model %d", step, k, s.Len(), len(want))
			}
			var got []ServerID
			s.ForEach(func(id ServerID) bool { got = append(got, id); return true })
			if !slices.Equal(got, want) { // want is sorted and unique: the walk is strictly ascending
				t.Fatalf("step %d set %d: walk %v, model %v", step, k, got, want)
			}
			if len(want) > 1 {
				var first []ServerID
				s.ForEach(func(id ServerID) bool { first = append(first, id); return len(first) < 2 })
				if !slices.Equal(first, want[:2]) {
					t.Fatalf("step %d set %d: walk stopped after two at %v, want %v", step, k, first, want[:2])
				}
			}
		}
		var diff, wantDiff []ServerID
		sets[0].ForEachDiff(&sets[1], func(id ServerID) { diff = append(diff, id) })
		for _, id := range members(models[0]) {
			if !models[1][id] {
				wantDiff = append(wantDiff, id)
			}
		}
		for _, id := range members(models[1]) {
			if !models[0][id] {
				wantDiff = append(wantDiff, id)
			}
		}
		slices.Sort(wantDiff)
		if !slices.Equal(diff, wantDiff) {
			t.Fatalf("step %d: difference walk %v, model %v", step, diff, wantDiff)
		}
		var drained ServerSet // a walk that removes what it is given
		drained.CopyFrom(&sets[0])
		var walked []ServerID
		drained.ForEach(func(id ServerID) bool { walked = append(walked, id); drained.Remove(id); return true })
		if !slices.Equal(walked, members(models[0])) || drained.Len() != 0 {
			t.Fatalf("step %d: draining walk %v left %d, model %v", step, walked, drained.Len(), members(models[0]))
		}
	}
}
