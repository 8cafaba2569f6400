package gpu

import (
	"fmt"
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
	// New sizes its tables before filling them: more GPUs than a
	// DeviceID can name is an error, not a huge or negative allocation.
	if _, err := New(Spec{Gen: K80, Servers: 1 << 40, GPUsPerSrv: 1 << 40}); err == nil {
		t.Error("2^80 GPUs accepted")
	}
	if _, err := New(Spec{Gen: K80, Servers: 1 << 30, GPUsPerSrv: 1}, Spec{Gen: V100, Servers: 1 << 30, GPUsPerSrv: 2}); err == nil {
		t.Error("3·2^30 GPUs accepted")
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
// count, the ascending walk, an early-stopped walk, the walk from an ID
// (word edges, negative and past the set, early stop included), a walk
// that removes what it visits and the difference walk against another
// set.
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
	none.ForEachFrom(3, func(ServerID) bool { t.Fatal("nil set walked"); return true })
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
			from := probe[rng.Intn(len(probe))]
			if rng.Intn(4) == 0 {
				from = ServerID(rng.Intn(300))
			}
			var tail, wantTail []ServerID
			s.ForEachFrom(from, func(id ServerID) bool { tail = append(tail, id); return true })
			for _, id := range want {
				if id >= from {
					wantTail = append(wantTail, id)
				}
			}
			if !slices.Equal(tail, wantTail) {
				t.Fatalf("step %d set %d: walk from %d %v, model %v", step, k, from, tail, wantTail)
			}
			if len(wantTail) > 1 {
				var first []ServerID
				s.ForEachFrom(from, func(id ServerID) bool { first = append(first, id); return len(first) < 2 })
				if !slices.Equal(first, wantTail[:2]) {
					t.Fatalf("step %d set %d: walk from %d stopped after two at %v, want %v", step, k, from, first, wantTail[:2])
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

// newAppend is New as it was before it counted first: every table
// grown by append, one allocation per server. It is the oracle New's
// inventory is held to.
func newAppend(specs ...Spec) (*Cluster, error) {
	c := &Cluster{}
	for _, sp := range specs {
		if !sp.Gen.Valid() {
			return nil, fmt.Errorf("gpu: invalid generation %d in spec", int(sp.Gen))
		}
		if sp.Servers <= 0 || sp.GPUsPerSrv <= 0 {
			return nil, fmt.Errorf("gpu: spec %v must have positive servers and GPUs", sp.Gen)
		}
		for i := 0; i < sp.Servers; i++ {
			srv := &Server{ID: ServerID(len(c.servers)), Gen: sp.Gen}
			for j := 0; j < sp.GPUsPerSrv; j++ {
				id := DeviceID(len(c.devices))
				c.devices = append(c.devices, Device{ID: id, Server: srv.ID, Gen: sp.Gen})
				srv.Devices = append(srv.Devices, id)
				c.byGen[sp.Gen] = append(c.byGen[sp.Gen], id)
			}
			c.servers = append(c.servers, srv)
			c.srvGen[sp.Gen] = append(c.srvGen[sp.Gen], srv.ID)
		}
	}
	if len(c.devices) == 0 {
		return nil, fmt.Errorf("gpu: empty cluster")
	}
	for g, devs := range c.byGen {
		if len(devs) > 0 {
			c.present = append(c.present, Generation(g))
		}
	}
	return c, nil
}

// TestNewMatchesAppendBuild holds New to newAppend on random spec
// lists — generations repeated and interleaved, invalid specs among
// them — for the same error or the same inventory, table by table.
func TestNewMatchesAppendBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		specs := make([]Spec, rng.Intn(6))
		for i := range specs {
			specs[i] = Spec{Gen: Generation(rng.Intn(NumGenerations)), Servers: 1 + rng.Intn(5), GPUsPerSrv: 1 + rng.Intn(8)}
			switch rng.Intn(20) {
			case 0:
				specs[i].Gen = Generation(NumGenerations + rng.Intn(3))
			case 1:
				specs[i].Servers = -rng.Intn(2)
			case 2:
				specs[i].GPUsPerSrv = 0
			}
		}
		got, gerr := New(specs...)
		want, werr := newAppend(specs...)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("specs %v: New error %v, the oracle's %v", specs, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if !slices.Equal(got.devices, want.devices) || !slices.Equal(got.present, want.present) {
			t.Fatalf("specs %v: devices or generations differ from the oracle's", specs)
		}
		for g := range want.byGen {
			if !slices.Equal(got.byGen[g], want.byGen[g]) || !slices.Equal(got.srvGen[g], want.srvGen[g]) {
				t.Fatalf("specs %v: generation %v's devices or servers differ from the oracle's", specs, Generation(g))
			}
		}
		if len(got.servers) != len(want.servers) {
			t.Fatalf("specs %v: %d servers, the oracle %d", specs, len(got.servers), len(want.servers))
		}
		for i, s := range want.servers {
			if g := got.servers[i]; g.ID != s.ID || g.Gen != s.Gen || !slices.Equal(g.Devices, s.Devices) {
				t.Fatalf("specs %v: server %d is %+v, the oracle's %+v", specs, i, *g, *s)
			}
		}
	}
}

// TestNewAllocsIndependentOfServers: New counts before it allocates,
// so building a cluster costs the same number of allocations at 1 and
// at 8,333 servers a generation.
func TestNewAllocsIndependentOfServers(t *testing.T) {
	allocs := func(servers int) float64 {
		specs := make([]Spec, NumGenerations)
		for g := range specs {
			specs[g] = Spec{Gen: Generation(g), Servers: servers, GPUsPerSrv: 3}
		}
		return testing.AllocsPerRun(5, func() { MustNew(specs...) })
	}
	one, many := allocs(1), allocs(8333)
	t.Logf("New, 4 generations × 3 GPUs a server: %.0f allocations at 1 server each, %.0f at 8,333", one, many)
	if one != many {
		t.Errorf("allocations grow with servers: %.0f at 1 a generation, %.0f at 8,333", one, many)
	}
}

// TestServerDevicesCappedAtOwnLength: the servers' device lists share
// one array, each cut to its own capacity, so appending to one server's
// list copies it away and leaves the next server's devices alone.
func TestServerDevicesCappedAtOwnLength(t *testing.T) {
	c := MustNew(Spec{Gen: K80, Servers: 3, GPUsPerSrv: 4}, Spec{Gen: V100, Servers: 2, GPUsPerSrv: 2})
	for i, srv := range c.Servers()[:c.NumServers()-1] {
		next := c.Server(ServerID(i + 1))
		before := slices.Clone(next.Devices)
		if cap(srv.Devices) != len(srv.Devices) {
			t.Fatalf("server %d: Devices has capacity %d beyond its %d GPUs", i, cap(srv.Devices), len(srv.Devices))
		}
		_ = append(srv.Devices, -1)
		if !slices.Equal(next.Devices, before) {
			t.Fatalf("appending to server %d's devices changed server %d's: %v → %v", i, i+1, before, next.Devices)
		}
	}
}
