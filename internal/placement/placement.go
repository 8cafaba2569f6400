// Package placement maps the jobs selected for a scheduling round
// onto concrete GPUs. It prefers stability (a job keeps the devices
// it ran on), packs gangs onto as few servers as possible, and
// reports which jobs had to migrate (server set changed) so the core
// can charge migration overhead. Place is a pure function of the
// round's inputs — all state (what ran where) is passed in, which
// keeps it trivially testable — and the oracle for Index, which keeps
// that state between rounds and must place exactly as Place does.
package placement

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/gpu"
	"repro/internal/job"
)

// Assignment maps each running job to the devices it holds. Device
// slices are sorted ascending.
type Assignment map[job.ID][]gpu.DeviceID

// Clone deep-copies the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for id, devs := range a {
		cp := make([]gpu.DeviceID, len(devs))
		copy(cp, devs)
		out[id] = cp
	}
	return out
}

// Request asks for one job to run this round on one generation.
type Request struct {
	Job *job.Job
	Gen gpu.Generation
}

// Options tunes placement behavior.
type Options struct {
	// AllowMigration permits moving a previously-running job to a
	// different server set when that is the only way to place it (or
	// a bigger gang). When false, a job that ran last round may only
	// be placed on exactly its previous devices — the
	// no-migration ablation, which strands capacity under
	// fragmentation. A job that reports Pinned (migration-failure
	// backoff) is held to that rule this round either way: it keeps its
	// exact previous devices (phase-1 stability) or goes unplaced.
	AllowMigration bool

	// Down marks failed servers; their devices are unplaceable this
	// round. A job whose previous devices are down is treated like
	// any displaced job: migrated if allowed, stranded otherwise. Nil
	// marks none.
	Down *gpu.ServerSet
}

// Result reports the round's placement.
type Result struct {
	Assignment Assignment
	// Migrated lists jobs whose server set changed relative to prev
	// (they pay checkpoint/restore cost).
	Migrated []job.ID
	// Unplaced lists requested jobs that could not be placed
	// (fragmentation or capacity); they do not run this round.
	Unplaced []job.ID
}

// Place computes the round's assignment. prev is last round's
// assignment (for stability and migration detection); requests may be
// in any order — big gangs are placed first internally.
func Place(c *gpu.Cluster, prev Assignment, reqs []Request, opt Options) Result {
	res := Result{Assignment: make(Assignment, len(reqs))}
	free := make([]bool, c.NumDevices()) // by DeviceID
	for _, srv := range c.Servers() {
		if opt.Down.Has(srv.ID) {
			continue
		}
		for _, d := range srv.Devices {
			free[d] = true
		}
	}

	order := slices.Clone(reqs)
	slices.SortFunc(order, byGangThenID)

	// Phase 1 — stability: keep jobs exactly where they were when the
	// previous devices still match the requested generation and gang.
	pending := order[:0]
	for _, r := range order {
		devs, ok := prev[r.Job.ID]
		if ok && len(devs) == r.Job.Gang && devicesOnGen(c, devs, r.Gen) && allFree(free, devs) {
			take(free, devs)
			res.Assignment[r.Job.ID] = sortedCopy(devs)
			continue
		}
		pending = append(pending, r)
	}

	// Phase 2 — place the rest.
	for _, r := range pending {
		_, ranBefore := prev[r.Job.ID]
		if ranBefore && (!opt.AllowMigration || r.Job.Pinned()) {
			// Previous devices unusable (wrong generation, wrong
			// count, or taken) and we may not move the job.
			res.Unplaced = append(res.Unplaced, r.Job.ID)
			continue
		}
		devs := findDevices(c, free, r, prev[r.Job.ID])
		if devs == nil {
			res.Unplaced = append(res.Unplaced, r.Job.ID)
			continue
		}
		take(free, devs)
		res.Assignment[r.Job.ID] = devs
		if ranBefore && !sameServers(c, prev[r.Job.ID], devs) {
			res.Migrated = append(res.Migrated, r.Job.ID)
		}
	}
	slices.Sort(res.Migrated)
	slices.Sort(res.Unplaced)
	return res
}

// byGangThenID is the deterministic processing order of a round's
// requests: gang descending, then job ID.
func byGangThenID(a, b Request) int {
	if a.Job.Gang != b.Job.Gang {
		return cmp.Compare(b.Job.Gang, a.Job.Gang)
	}
	return cmp.Compare(a.Job.ID, b.Job.ID)
}

// findDevices picks gang devices of the requested generation:
// best-fit on a single server if possible (preferring the job's
// previous server, then fullest-fitting server), otherwise spanning
// the fewest servers, most-free first.
func findDevices(c *gpu.Cluster, free []bool, r Request, prevDevs []gpu.DeviceID) []gpu.DeviceID {
	gang := r.Job.Gang
	prevServers := appendServers(c, nil, prevDevs)

	type srvFree struct {
		id   gpu.ServerID
		devs []gpu.DeviceID
	}
	var servers []srvFree
	total := 0
	for _, sid := range c.ServersOf(r.Gen) {
		srv := c.Server(sid)
		var fd []gpu.DeviceID
		for _, d := range srv.Devices {
			if free[d] {
				fd = append(fd, d)
			}
		}
		if len(fd) > 0 {
			servers = append(servers, srvFree{sid, fd})
			total += len(fd)
		}
	}
	if total < gang {
		return nil
	}

	// Single-server candidates: best fit (fewest leftover GPUs), with
	// the job's previous server winning ties (cheap intra-server
	// shuffle instead of a migration).
	best := -1
	for i, s := range servers {
		if len(s.devs) < gang {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		bi, si := servers[best], s
		biPrev, siPrev := slices.Contains(prevServers, bi.id), slices.Contains(prevServers, si.id)
		switch {
		case siPrev && !biPrev:
			best = i
		case biPrev && !siPrev:
			// keep
		case len(si.devs) < len(bi.devs):
			best = i
		case len(si.devs) == len(bi.devs) && si.id < bi.id:
			best = i
		}
	}
	if best >= 0 {
		return sortedCopy(servers[best].devs[:gang])
	}

	// Spanning: greedily take from the most-free servers so the gang
	// touches as few machines as possible.
	slices.SortFunc(servers, func(a, b srvFree) int {
		if len(a.devs) != len(b.devs) {
			return cmp.Compare(len(b.devs), len(a.devs))
		}
		return cmp.Compare(a.id, b.id)
	})
	var out []gpu.DeviceID
	need := gang
	for _, s := range servers {
		n := len(s.devs)
		if n > need {
			n = need
		}
		out = append(out, s.devs[:n]...)
		need -= n
		if need == 0 {
			break
		}
	}
	return sortedCopy(out)
}

// ServersUsed returns how many distinct servers a device set spans.
func ServersUsed(c *gpu.Cluster, devs []gpu.DeviceID) int {
	var buf [8]gpu.ServerID
	return len(appendServers(c, buf[:0], devs))
}

// Owners is the device-owner table behind Validate and the engine
// auditor's double-placement check: which job claimed each device
// during the current pass. DeviceIDs are dense, so the table is two
// slices indexed by DeviceID, and a pass opens by bumping the epoch
// instead of clearing: an entry counts only while its stamp equals the
// current epoch. An engine keeps one table for every pass it makes, so
// checking a round costs O(placed devices) with no hashing and no
// allocation. Not safe for concurrent use.
type Owners struct {
	c     *gpu.Cluster
	epoch uint32
	stamp []uint32 //gflint:noretain by DeviceID: epoch of the device's last claim
	owner []job.ID //gflint:noretain by DeviceID: the claimant, valid while stamp == epoch
}

// NewOwners sizes an owner table for the cluster.
func NewOwners(c *gpu.Cluster) *Owners {
	return &Owners{
		c:     c,
		stamp: make([]uint32, c.NumDevices()),
		owner: make([]job.ID, c.NumDevices()),
	}
}

// Begin opens a new pass: every earlier claim is forgotten.
func (o *Owners) Begin() {
	o.epoch++
	if o.epoch == 0 { // wrapped: stale stamps could collide with reused epochs
		clear(o.stamp)
		o.epoch = 1
	}
}

// Claim records job id as the holder of device d in the current pass
// and returns the holder it displaced, if the pass had one. d must be
// a device of the cluster.
func (o *Owners) Claim(d gpu.DeviceID, id job.ID) (prev job.ID, dup bool) {
	if o.stamp[d] == o.epoch {
		prev, dup = o.owner[d], true
	}
	o.stamp[d], o.owner[d] = o.epoch, id
	return prev, dup
}

// Validate checks assignment invariants against the cluster: no
// device assigned twice and every job's devices sharing one
// generation. It returns the first violation. Callers that validate
// every round keep an Owners and use its methods instead.
func Validate(c *gpu.Cluster, a Assignment) error {
	return NewOwners(c).Validate(a)
}

// Validate is the package-level Validate run as one pass over the
// table.
func (o *Owners) Validate(a Assignment) error {
	o.Begin()
	for id, devs := range a {
		if err := o.ValidateJob(id, devs); err != nil {
			return err
		}
	}
	return nil
}

// ValidateJob is one job's share of Validate within the current pass:
// the job holds at least one device, all of them known and of one
// generation, and none claimed earlier in the pass. A caller with its
// own ordered view of an assignment (the engine walks jobs by ID)
// calls Begin once and then this per job.
func (o *Owners) ValidateJob(id job.ID, devs []gpu.DeviceID) error {
	if len(devs) == 0 {
		return fmt.Errorf("placement: job %d assigned zero devices", id)
	}
	for _, d := range devs {
		if int(d) < 0 || int(d) >= o.c.NumDevices() {
			return fmt.Errorf("placement: job %d holds unknown device %d", id, d)
		}
	}
	gen := o.c.Device(devs[0]).Gen
	for _, d := range devs {
		if o.c.Device(d).Gen != gen {
			return fmt.Errorf("placement: job %d mixes generations", id)
		}
		if prev, dup := o.Claim(d, id); dup {
			return fmt.Errorf("placement: device %d assigned to jobs %d and %d", d, prev, id)
		}
	}
	return nil
}

func devicesOnGen(c *gpu.Cluster, devs []gpu.DeviceID, g gpu.Generation) bool {
	for _, d := range devs {
		if c.Device(d).Gen != g {
			return false
		}
	}
	return true
}

func allFree(free []bool, devs []gpu.DeviceID) bool {
	for _, d := range devs {
		if !free[d] {
			return false
		}
	}
	return true
}

func take(free []bool, devs []gpu.DeviceID) {
	for _, d := range devs {
		free[d] = false
	}
}

// appendServers appends the distinct servers of devs to dst in
// ascending order. Device IDs are dense per server, so the sorted
// slices an Assignment holds are already grouped by ascending server
// and cost one pass; any other order is sorted afterwards.
func appendServers(c *gpu.Cluster, dst []gpu.ServerID, devs []gpu.DeviceID) []gpu.ServerID {
	base := len(dst)
	ascending := true
	for _, d := range devs {
		sid := c.Device(d).Server
		if n := len(dst); n > base {
			if dst[n-1] == sid {
				continue
			}
			if dst[n-1] > sid {
				ascending = false
			}
		}
		dst = append(dst, sid)
	}
	if !ascending {
		slices.Sort(dst[base:])
		dst = dst[:base+len(slices.Compact(dst[base:]))]
	}
	return dst
}

// sameServers reports whether two device sets span the same servers.
func sameServers(c *gpu.Cluster, a, b []gpu.DeviceID) bool {
	var bufA, bufB [8]gpu.ServerID
	return slices.Equal(appendServers(c, bufA[:0], a), appendServers(c, bufB[:0], b))
}

func sortedCopy(devs []gpu.DeviceID) []gpu.DeviceID {
	out := slices.Clone(devs)
	slices.Sort(out)
	return out
}
