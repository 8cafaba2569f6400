// Package gpu models the hardware inventory of a heterogeneous GPU
// cluster: GPU generations, servers (each holding a small number of
// GPUs of a single generation), and the cluster as a whole.
//
// The package is pure inventory — who occupies which device is the
// placement layer's concern. Keeping inventory immutable after
// construction lets every scheduler component share one *Cluster
// without synchronization.
package gpu

import (
	"fmt"
	"math"
	"math/bits"
)

// Generation identifies a GPU hardware generation. Order matters:
// higher values are newer/faster generations, which the trading
// mechanism relies on when enumerating (fast, slow) pairs.
type Generation int

// The generations evaluated in the paper's 200-GPU Azure cluster.
const (
	K80 Generation = iota
	P40
	P100
	V100
	numGenerations
)

// Generations lists all generations from oldest to newest.
func Generations() []Generation {
	g := make([]Generation, numGenerations)
	for i := range g {
		g[i] = Generation(i)
	}
	return g
}

// NumGenerations is the number of modeled GPU generations.
const NumGenerations = int(numGenerations)

func (g Generation) String() string {
	switch g {
	case K80:
		return "K80"
	case P40:
		return "P40"
	case P100:
		return "P100"
	case V100:
		return "V100"
	default:
		return fmt.Sprintf("Generation(%d)", int(g))
	}
}

// Valid reports whether g is one of the defined generations.
func (g Generation) Valid() bool { return g >= 0 && g < numGenerations }

// ParseGeneration converts a name like "V100" to a Generation.
func ParseGeneration(s string) (Generation, error) {
	for _, g := range Generations() {
		if g.String() == s {
			return g, nil
		}
	}
	return 0, fmt.Errorf("gpu: unknown generation %q", s)
}

// MemGB returns the device memory of the generation in gigabytes.
// (Used by the job model to bound which models fit; values are the
// common SKUs: K80 12 GB/die, P40 24 GB, P100 16 GB, V100 16 GB.)
func (g Generation) MemGB() float64 {
	switch g {
	case K80:
		return 12
	case P40:
		return 24
	case P100:
		return 16
	case V100:
		return 16
	default:
		return 0
	}
}

// DeviceID names a single GPU, unique cluster-wide.
type DeviceID int32

// ServerID names a server, unique cluster-wide.
type ServerID int32

// ServerSet is a set of servers, one bit per ServerID, and the one form
// of every server set: failed, unreachable, quarantined, unavailable,
// the placement index's buckets. The zero value is empty and grows on
// Add; Has is false beyond it, and a nil *ServerSet reads as empty.
// Walks go in ascending ID order. Assigning a ServerSet shares its
// bits: copy one with CopyFrom.
type ServerSet struct {
	words []uint64
}

// Grow makes room for the IDs below n, so adding them does not allocate.
func (s *ServerSet) Grow(n int) {
	if w := (n + 63) >> 6; w > len(s.words) {
		s.words = append(s.words, make([]uint64, w-len(s.words))...)
	}
}

// Add puts id in the set.
func (s *ServerSet) Add(id ServerID) {
	s.Grow(int(id) + 1)
	s.words[id>>6] |= 1 << (id & 63)
}

// Remove takes id out of the set.
func (s *ServerSet) Remove(id ServerID) {
	if s.Has(id) {
		s.words[id>>6] &^= 1 << (id & 63)
	}
}

// Has reports whether id is in the set.
func (s *ServerSet) Has(id ServerID) bool {
	return s != nil && id >= 0 && int(id>>6) < len(s.words) && s.words[id>>6]&(1<<(id&63)) != 0
}

// Len returns the number of servers in the set.
func (s *ServerSet) Len() (n int) {
	if s != nil {
		for _, w := range s.words {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// Clear empties the set, keeping its room.
func (s *ServerSet) Clear() { clear(s.words) }

// CopyFrom makes s hold exactly the servers of o.
func (s *ServerSet) CopyFrom(o *ServerSet) {
	s.Clear()
	s.Union(o)
}

// Union adds the servers of o to s.
func (s *ServerSet) Union(o *ServerSet) {
	if o != nil {
		s.Grow(len(o.words) << 6)
		for i, w := range o.words {
			s.words[i] |= w
		}
	}
}

// ForEach calls fn on the servers of the set in ascending ID order until
// fn returns false; fn may remove the server it is given.
func (s *ServerSet) ForEach(fn func(ServerID) bool) { s.ForEachFrom(0, fn) }

// ForEachFrom is ForEach over the servers with ID at least from: the
// walk starts at from's word, so the servers below it cost nothing.
func (s *ServerSet) ForEachFrom(from ServerID, fn func(ServerID) bool) {
	if s == nil {
		return
	}
	from = max(from, 0)
	for i := int(from >> 6); i < len(s.words); i++ {
		w := s.words[i]
		if i == int(from>>6) {
			w &^= 1<<(from&63) - 1
		}
		for ; w != 0; w &= w - 1 {
			if !fn(ServerID(i<<6 + bits.TrailingZeros64(w))) {
				return
			}
		}
	}
}

// ForEachDiff calls fn, in ascending ID order, on every server in
// exactly one of s and o. It may grow s to o's room; fn may add or
// remove the server it is given.
func (s *ServerSet) ForEachDiff(o *ServerSet, fn func(ServerID)) {
	var other []uint64
	if o != nil {
		other = o.words
		s.Grow(len(other) << 6)
	}
	for i := range s.words {
		d := s.words[i]
		if i < len(other) {
			d ^= other[i]
		}
		for ; d != 0; d &= d - 1 {
			fn(ServerID(i<<6 + bits.TrailingZeros64(d)))
		}
	}
}

// Device is one physical GPU.
type Device struct {
	ID     DeviceID
	Server ServerID
	Gen    Generation
}

// Server is one machine holding GPUs of a single generation (as in the
// paper's testbed, where each VM SKU carries one GPU type).
type Server struct {
	ID      ServerID
	Gen     Generation
	Devices []DeviceID // sorted ascending
}

// NumGPUs returns the number of GPUs on the server.
func (s *Server) NumGPUs() int { return len(s.Devices) }

// Spec describes a group of identical servers for cluster construction.
type Spec struct {
	Gen        Generation
	Servers    int // number of servers of this kind
	GPUsPerSrv int // GPUs on each
}

// Cluster is the full, immutable hardware inventory.
type Cluster struct {
	servers []*Server
	devices []Device // indexed by DeviceID
	byGen   [numGenerations][]DeviceID
	srvGen  [numGenerations][]ServerID
	present []Generation // generations with at least one GPU, oldest first
}

// New builds a cluster from server specs. Device and server IDs are
// assigned densely in spec order, so a given spec list always produces
// the same inventory (determinism). It counts first and then fills
// every table at its final size: the servers share one backing array,
// and so do their device lists, each cut to its own capacity so that
// appending to one never writes into the next.
func New(specs ...Spec) (*Cluster, error) {
	var nDev, nSrv int
	var devsOf, srvsOf [numGenerations]int
	for _, sp := range specs {
		if !sp.Gen.Valid() {
			return nil, fmt.Errorf("gpu: invalid generation %d in spec", int(sp.Gen))
		}
		if sp.Servers <= 0 || sp.GPUsPerSrv <= 0 {
			return nil, fmt.Errorf("gpu: spec %v must have positive servers and GPUs", sp.Gen)
		}
		if sp.GPUsPerSrv > (math.MaxInt32-nDev)/sp.Servers {
			return nil, fmt.Errorf("gpu: cluster exceeds %d GPUs", math.MaxInt32)
		}
		nDev += sp.Servers * sp.GPUsPerSrv
		nSrv += sp.Servers
		devsOf[sp.Gen] += sp.Servers * sp.GPUsPerSrv
		srvsOf[sp.Gen] += sp.Servers
	}
	if nDev == 0 {
		return nil, fmt.Errorf("gpu: empty cluster")
	}
	c := &Cluster{
		servers: make([]*Server, nSrv),
		devices: make([]Device, nDev),
		present: make([]Generation, 0, numGenerations),
	}
	for g := range c.byGen {
		if devsOf[g] > 0 {
			c.byGen[g] = make([]DeviceID, 0, devsOf[g])
			c.srvGen[g] = make([]ServerID, 0, srvsOf[g])
			c.present = append(c.present, Generation(g))
		}
	}
	srvs := make([]Server, nSrv)
	ids := make([]DeviceID, nDev)
	var d, s int
	for _, sp := range specs {
		for i := 0; i < sp.Servers; i++ {
			srv := &srvs[s]
			*srv = Server{ID: ServerID(s), Gen: sp.Gen, Devices: ids[d : d+sp.GPUsPerSrv : d+sp.GPUsPerSrv]}
			for j := range srv.Devices {
				id := DeviceID(d)
				c.devices[d] = Device{ID: id, Server: srv.ID, Gen: sp.Gen}
				srv.Devices[j] = id
				c.byGen[sp.Gen] = append(c.byGen[sp.Gen], id)
				d++
			}
			c.servers[s] = srv
			c.srvGen[sp.Gen] = append(c.srvGen[sp.Gen], srv.ID)
			s++
		}
	}
	return c, nil
}

// MustNew is New but panics on error; for tests and fixed fixtures.
func MustNew(specs ...Spec) *Cluster {
	c, err := New(specs...)
	if err != nil {
		panic(err)
	}
	return c
}

// Default200 returns the repository's default heterogeneous cluster,
// sized like the paper's 200-GPU testbed: 12×4 K80, 12×4 P40,
// 14×4 P100, 12×4 V100 = 48+48+56+48 = 200 GPUs on 50 servers.
func Default200() *Cluster {
	return MustNew(
		Spec{Gen: K80, Servers: 12, GPUsPerSrv: 4},
		Spec{Gen: P40, Servers: 12, GPUsPerSrv: 4},
		Spec{Gen: P100, Servers: 14, GPUsPerSrv: 4},
		Spec{Gen: V100, Servers: 12, GPUsPerSrv: 4},
	)
}

// NumDevices returns the total GPU count.
func (c *Cluster) NumDevices() int { return len(c.devices) }

// NumServers returns the server count.
func (c *Cluster) NumServers() int { return len(c.servers) }

// Device returns the device record for id.
func (c *Cluster) Device(id DeviceID) Device {
	return c.devices[id]
}

// Server returns the server record for id.
func (c *Cluster) Server(id ServerID) *Server {
	return c.servers[id]
}

// Servers returns all servers in ID order. Callers must not mutate.
func (c *Cluster) Servers() []*Server { return c.servers }

// DevicesOf returns the device IDs of a generation in ascending order.
// Callers must not mutate the returned slice.
func (c *Cluster) DevicesOf(g Generation) []DeviceID {
	if !g.Valid() {
		return nil
	}
	return c.byGen[g]
}

// ServersOf returns the server IDs holding a generation.
func (c *Cluster) ServersOf(g Generation) []ServerID {
	if !g.Valid() {
		return nil
	}
	return c.srvGen[g]
}

// CapacityByGen returns GPU counts per generation.
func (c *Cluster) CapacityByGen() map[Generation]int {
	m := make(map[Generation]int, numGenerations)
	for _, g := range Generations() {
		if n := len(c.byGen[g]); n > 0 {
			m[g] = n
		}
	}
	return m
}

// Capacity returns the GPU count of one generation.
func (c *Cluster) Capacity(g Generation) int {
	if !g.Valid() {
		return 0
	}
	return len(c.byGen[g])
}

// GensPresent returns the generations with at least one GPU, oldest
// first. Callers must not mutate the returned slice.
func (c *Cluster) GensPresent() []Generation { return c.present }

// String summarizes the inventory, e.g.
// "cluster{K80:48 P40:48 P100:56 V100:48 | 50 servers}".
func (c *Cluster) String() string {
	s := "cluster{"
	for i, g := range c.present {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%v:%d", g, len(c.byGen[g]))
	}
	return s + fmt.Sprintf(" | %d servers}", len(c.servers))
}
