// The persistent placement index: the engine's replacement for the
// per-round full-cluster scan in Place. The index keeps, across
// rounds, which devices are free, a per-(generation, free-count)
// bucket of servers — so one placement request costs O(prev servers +
// buckets + gang) instead of O(all servers of the generation) — and
// which job holds every device that is not, so a round costs what
// changed since the last one instead of every placed device.
//
// Equivalence contract: PlaceRound (and PlaceIndexed, the same routine
// entered with nothing held) must place byte-identically to Place for
// the same inputs (asserted by the randomized differential tests in
// index_test.go and round_test.go and the engine-level golden and
// differential digest tests). Every tie-break below mirrors
// findDevices exactly:
//
//   - a previous server of the job ALWAYS beats a non-previous server
//     for the single-server best fit, regardless of fit quality;
//   - among previous (resp. non-previous) candidates: fewest free
//     devices first, then lowest server ID;
//   - spanning walks servers by free count descending, then server ID
//     ascending, taking each server's lowest-ID free devices;
//   - within a server, the lowest-ID free devices are taken (the
//     ascending srv.Devices scan).
package placement

import (
	"cmp"
	"slices"

	"repro/internal/gpu"
	"repro/internal/job"
)

// Mark says what a round did with one request.
type Mark uint8

const (
	// Unplaced: the job does not run this round; where it last held
	// devices is unchanged.
	Unplaced Mark = iota
	// Kept: the job runs on the devices it last held.
	Kept
	// Placed: the job runs on new devices without a migration — it never
	// ran before, or the new devices are on the servers of the old.
	Placed
	// Moved: the job runs on another server set and pays the migration.
	Moved
)

// Move is one request of a round whose job changed servers.
type Move struct {
	Job  *job.Job
	From []gpu.DeviceID // where it last held devices before the round
}

// Round is one round's placement, by position: Marks[i] is what became
// of reqs[i], and a placed job's devices are its record's
// (job.Job.Devices). It is also the round's delta against the last one:
// a request not marked Kept starts or moves, a holder the round did not
// ask for again stops. Both slices are the index's scratch, good
// until its next round.
type Round struct {
	Marks []Mark //gflint:noretain by request position
	Moved []Move //gflint:noretain the Moved requests, in job-ID order
}

// holding is one entry of the index's list of holders: a job whose
// devices are taken in its name. The job's HoldSlot is the entry's
// position plus one.
type holding struct {
	job  *job.Job // nil once released
	req  int32    // position in the requests of round call
	call int32    // the last round that asked for the job again
	gen  int8     // generation of the devices held
}

// pend is one request on its way through a round: not (or no longer)
// holding what it asks for. The sort key is copied out of the job.
type pend struct {
	id   job.ID
	job  *job.Job
	gang int32
	pos  int32 // position in the round's requests
	gen  gpu.Generation
}

// Index is the persistent placement state: which devices are free, a
// per-(generation, free-count) bucket of servers — so one placement
// costs O(prev servers + buckets + gang) instead of O(all servers of
// the generation) — and who holds the rest. The devices of every job a
// round placed stay taken in that job's name until a later round does
// not ask for it again (or asks for it elsewhere), Release gives them
// back, or SyncUnavail takes their server away; so a round pays for
// what changed since the last one, not for every placed device.
//
// Where a job holds (or last held) devices is on its job.Job: the index
// writes Devices and HoldSlot, and reads the devices of a job that
// holds none as its stability baseline — what prev[id] is to Place.
//
// An Index is owned by one engine instance and is not safe for
// concurrent use.
type Index struct {
	c       *gpu.Cluster
	freeDev []bool        // by DeviceID: free right now
	holder  []*job.Job    // by DeviceID: who has it taken; nil for a free device and on an unavailable server
	freeCnt []int16       // by ServerID: number of free devices
	unavail gpu.ServerSet // down or quarantined: the last SyncUnavail set
	maxCnt  int           // largest GPUs-per-server in the cluster

	// buckets[gen][cnt] holds the available servers of gen with
	// exactly cnt free devices, cnt in 1..maxCnt (servers with zero
	// free devices live in no bucket). totalFree[gen] is the number
	// of free devices on available servers of gen.
	buckets   [gpu.NumGenerations][]gpu.ServerSet
	totalFree [gpu.NumGenerations]int

	held  []holding // the holders, and entries released since the last round
	calls int32     // rounds placed

	// takes and releases count device state changes: the operation gate's
	// signal that a round costs its churn (see DeviceOps).
	takes, releases int

	// slab is what new device lists are cut from: a chunk of slabLen
	// IDs, each list capped at its own length (see cut).
	slab []gpu.DeviceID

	// Scratch reused across rounds.
	round    Round          //gflint:noretain the last round's result
	cand     []pend         //gflint:noretain per-round scratch
	evicted  []pend         //gflint:noretain per-round scratch
	prevSrvs []gpu.ServerID //gflint:noretain per-call scratch
	spanOut  []gpu.DeviceID //gflint:noretain per-call scratch
}

// slabLen is the length of one slab chunk: a round that places a
// thousand gangs anew makes tens of allocations for their device lists,
// not a thousand.
const slabLen = 1024

// NewIndex builds the index with all servers available, all devices
// free and nothing held.
func NewIndex(c *gpu.Cluster) *Index {
	idx := &Index{
		c:       c,
		freeDev: make([]bool, c.NumDevices()),
		holder:  make([]*job.Job, c.NumDevices()),
		freeCnt: make([]int16, c.NumServers()),
	}
	for _, srv := range c.Servers() {
		if n := len(srv.Devices); n > idx.maxCnt {
			idx.maxCnt = n
		}
	}
	for g := range idx.buckets {
		if len(c.DevicesOf(gpu.Generation(g))) == 0 {
			continue
		}
		idx.buckets[g] = make([]gpu.ServerSet, idx.maxCnt+1)
		for cnt := 1; cnt <= idx.maxCnt; cnt++ {
			idx.buckets[g][cnt].Grow(c.NumServers())
		}
	}
	for i := range idx.freeDev {
		idx.freeDev[i] = true
	}
	for _, srv := range c.Servers() {
		idx.freeCnt[srv.ID] = int16(len(srv.Devices))
		idx.buckets[srv.Gen][len(srv.Devices)].Add(srv.ID)
		idx.totalFree[srv.Gen] += len(srv.Devices)
	}
	return idx
}

// SyncUnavail makes set the index's unavailable servers — what
// Options.Down is to Place — flipping, in ID order, only those whose
// state differs from the last call. A job holding a device of a server
// that goes away loses its hold on all of its devices; they stay where
// it last ran. Call between rounds. Cost is O(servers / 64 + flipped
// servers + what the evicted held).
func (idx *Index) SyncUnavail(set *gpu.ServerSet) {
	idx.unavail.ForEachDiff(set, func(sid gpu.ServerID) {
		idx.setAvail(sid, idx.unavail.Has(sid))
	})
}

// setAvail flips one server's availability. Nobody holds a device of an
// unavailable server, so the server is fully free either side of the
// flip.
func (idx *Index) setAvail(id gpu.ServerID, avail bool) {
	srv := idx.c.Server(id)
	n := len(srv.Devices)
	if avail {
		idx.unavail.Remove(id)
		for _, d := range srv.Devices {
			idx.freeDev[d] = true
		}
		idx.freeCnt[id] = int16(n)
		idx.buckets[srv.Gen][n].Add(id)
		idx.totalFree[srv.Gen] += n
	} else {
		idx.unavail.Add(id)
		for _, d := range srv.Devices {
			if h := idx.holder[d]; h != nil {
				idx.Release(h)
			}
		}
		for _, d := range srv.Devices {
			idx.freeDev[d] = false
		}
		idx.freeCnt[id] = 0
		idx.buckets[srv.Gen][n].Remove(id)
		idx.totalFree[srv.Gen] -= n
	}
}

// take marks one free device as j's and moves its server down one
// bucket.
func (idx *Index) take(d gpu.DeviceID, j *job.Job) {
	idx.freeDev[d] = false
	idx.holder[d] = j
	srv := idx.c.Device(d).Server
	g := idx.c.Server(srv).Gen
	cnt := int(idx.freeCnt[srv])
	idx.buckets[g][cnt].Remove(srv)
	if cnt > 1 {
		idx.buckets[g][cnt-1].Add(srv)
	}
	idx.freeCnt[srv]--
	idx.totalFree[g]--
	idx.takes++
}

// release undoes take.
func (idx *Index) release(d gpu.DeviceID) {
	idx.freeDev[d] = true
	idx.holder[d] = nil
	srv := idx.c.Device(d).Server
	g := idx.c.Server(srv).Gen
	cnt := int(idx.freeCnt[srv])
	if cnt > 0 {
		idx.buckets[g][cnt].Remove(srv)
	}
	idx.buckets[g][cnt+1].Add(srv)
	idx.freeCnt[srv]++
	idx.totalFree[g]++
	idx.releases++
}

// hold takes devs in j's name, for request pos of the running round,
// and makes them the job's devices.
func (idx *Index) hold(j *job.Job, devs []gpu.DeviceID, g gpu.Generation, pos int32) {
	for _, d := range devs {
		idx.take(d, j)
	}
	idx.held = append(idx.held, holding{job: j, req: pos, call: idx.calls, gen: int8(g)})
	j.SetDevices(devs, int32(len(idx.held)))
}

// Release gives back the devices j holds, if it holds any: the job
// finished, its migration failed, or its place is no longer its own.
// The devices stay on its record as where it last ran.
func (idx *Index) Release(j *job.Job) {
	k := j.HoldSlot()
	if k == 0 {
		return
	}
	for _, d := range j.Devices() {
		idx.release(d)
	}
	idx.held[k-1].job = nil
	j.SetDevices(j.Devices(), 0)
}

// DeviceOps returns how many devices the index has taken and released
// since it was built. The counts are deterministic; tests and the
// gpu-scale benchmark bind them to a round's churn.
func (idx *Index) DeviceOps() (takes, releases int) { return idx.takes, idx.releases }

// PlaceRound computes the round's assignment, identical to what Place
// returns for the same requests when prev is every job's Devices and
// Options.Down the SyncUnavail set — but starting from what the last
// round left held, so its cost follows what changed:
//
//   - a holder asked for again on the generation it holds keeps its
//     devices untouched; one that is not asked for, or asked for on
//     another generation, gives them back;
//   - the requests that hold nothing are settled in Place's order (gang
//     descending, then ID). One whose last devices still fit the request
//     takes them back iff each is free or held by a job that sorts after
//     it — Place's phase 1 would have reached it first — and a holder
//     that loses a device that way gives up all of them;
//   - whoever holds nothing then is placed by Place's phase 2.
//
// Server availability comes from the index (SyncUnavail), so
// Options.Down is ignored. No job may be requested twice.
//
//gflint:noretain
func (idx *Index) PlaceRound(reqs []Request, opt Options) *Round {
	c := idx.c
	idx.calls++
	rd := &idx.round
	rd.Marks = slices.Grow(rd.Marks[:0], len(reqs))[:len(reqs)]
	rd.Moved = rd.Moved[:0]

	// Who is asked for again, and who else wants devices.
	cand := slices.Grow(idx.cand[:0], len(reqs))
	for i, r := range reqs {
		j := r.Job
		if k := j.HoldSlot(); k > 0 {
			if e := &idx.held[k-1]; gpu.Generation(e.gen) == r.Gen {
				e.req, e.call = int32(i), idx.calls
				rd.Marks[i] = Kept
				continue
			}
			idx.Release(j)
		}
		cand = append(cand, pendOf(j, int32(i), r.Gen))
	}
	w := 0
	for k, e := range idx.held {
		if e.job == nil {
			continue
		}
		if e.call != idx.calls {
			idx.Release(e.job)
			continue
		}
		if w != k {
			idx.held[w] = e
			e.job.SetDevices(e.job.Devices(), int32(w)+1)
		}
		w++
	}
	clear(idx.held[w:])
	idx.held = idx.held[:w]

	// Phase 1 — stability, for the requests whose last devices are not
	// theirs right now.
	slices.SortFunc(cand, byGangThenIDPend)
	pending, evicted := cand[:0], idx.evicted[:0]
	for _, p := range cand {
		devs := p.job.Devices()
		if len(devs) != int(p.gang) || !devicesOnGen(c, devs, p.gen) || !idx.wins(p, devs) {
			pending = append(pending, p)
			continue
		}
		for _, d := range devs {
			if h := idx.holder[d]; h != nil {
				e := idx.held[h.HoldSlot()-1]
				evicted = append(evicted, pendOf(h, e.req, gpu.Generation(e.gen)))
				idx.Release(h)
			}
		}
		idx.hold(p.job, devs, p.gen, p.pos)
		rd.Marks[p.pos] = Kept
	}
	if len(evicted) > 0 {
		pending = append(pending, evicted...)
		slices.SortFunc(pending, byGangThenIDPend)
	}
	idx.cand, idx.evicted = pending[:0], evicted[:0]

	// Phase 2 — place the rest.
	for _, p := range pending {
		j := p.job
		prevDevs := j.Devices()
		ranBefore := prevDevs != nil
		var devs []gpu.DeviceID
		if !ranBefore || (opt.AllowMigration && !j.Pinned()) {
			devs = idx.findDevices(Request{Job: j, Gen: p.gen}, prevDevs)
		}
		if devs == nil {
			rd.Marks[p.pos] = Unplaced
			continue
		}
		idx.hold(j, devs, p.gen, p.pos)
		rd.Marks[p.pos] = Placed
		if ranBefore && !sameServers(c, prevDevs, devs) {
			rd.Marks[p.pos] = Moved
			rd.Moved = append(rd.Moved, Move{Job: j, From: prevDevs})
		}
	}
	slices.SortFunc(rd.Moved, func(a, b Move) int { return cmp.Compare(a.Job.ID, b.Job.ID) })
	return rd
}

// wins reports whether p may take back devs, its last devices: each is
// free, or held by a job Place would reach after p.
func (idx *Index) wins(p pend, devs []gpu.DeviceID) bool {
	for _, d := range devs {
		if idx.freeDev[d] {
			continue
		}
		// Nobody holds a device of an unavailable server.
		if h := idx.holder[d]; h == nil || byGangThenIDPend(p, pendOf(h, 0, 0)) > 0 {
			return false
		}
	}
	return true
}

func pendOf(j *job.Job, pos int32, g gpu.Generation) pend {
	return pend{id: j.ID, job: j, gang: int32(j.Gang), pos: pos, gen: g}
}

// byGangThenIDPend is byGangThenID on the copied-out keys.
func byGangThenIDPend(a, b pend) int {
	if a.gang != b.gang {
		return cmp.Compare(b.gang, a.gang)
	}
	return cmp.Compare(a.id, b.id)
}

// PlaceIndexed is Place driven by the index instead of a cluster scan:
// PlaceRound entered with nothing held and prev loaded as where every
// requested job last held devices — the case in which PlaceRound's
// phase 1 is Place's. It leaves as it entered: whatever the round took
// is released and the jobs' records are put back, so idx must hold
// nothing when called, and a caller that wants placements to persist
// calls PlaceRound. Server availability comes from the index
// (SyncUnavail), so Options.Down is ignored. Returned device slices for
// jobs that kept their previous devices ALIAS the prev slices (no
// copy); Place's output values are identical either way.
func PlaceIndexed(idx *Index, prev Assignment, reqs []Request, opt Options) Result {
	type record struct {
		devs []gpu.DeviceID
		slot int32
	}
	saved := make([]record, len(reqs))
	for i, r := range reqs {
		saved[i] = record{r.Job.Devices(), r.Job.HoldSlot()}
		r.Job.SetDevices(prev[r.Job.ID], 0)
	}
	rd := idx.PlaceRound(reqs, opt)
	res := Result{Assignment: make(Assignment, len(reqs))}
	for i, r := range reqs {
		if rd.Marks[i] == Unplaced {
			res.Unplaced = append(res.Unplaced, r.Job.ID)
		} else {
			res.Assignment[r.Job.ID] = r.Job.Devices()
		}
		idx.Release(r.Job)
		r.Job.SetDevices(saved[i].devs, saved[i].slot)
	}
	for _, m := range rd.Moved {
		res.Migrated = append(res.Migrated, m.Job.ID)
	}
	slices.Sort(res.Unplaced)
	return res
}

// findDevices mirrors the scanning findDevices through the index.
func (idx *Index) findDevices(r Request, prevDevs []gpu.DeviceID) []gpu.DeviceID {
	c := idx.c
	gang := r.Job.Gang
	g := r.Gen
	if idx.buckets[g] == nil || idx.totalFree[g] < gang {
		return nil
	}

	idx.prevSrvs = appendServers(c, idx.prevSrvs[:0], prevDevs)
	prevSrvs := idx.prevSrvs

	// Single-server best fit. A previous server always beats a
	// non-previous one; among previous servers it is fewest-free then
	// lowest ID — exactly the rescan comparison, restricted here to
	// the (tiny) prev set plus one bucket probe.
	first := c.ServersOf(g)[0] // a bucket of g holds no server below it
	best := gpu.ServerID(-1)
	bestCnt := 0
	for _, sid := range prevSrvs {
		if idx.unavail.Has(sid) {
			continue
		}
		srv := c.Server(sid)
		cnt := int(idx.freeCnt[sid])
		if srv.Gen != g || cnt < gang {
			continue
		}
		if best < 0 || cnt < bestCnt || (cnt == bestCnt && sid < best) {
			best, bestCnt = sid, cnt
		}
	}
	if best < 0 {
		// No previous server fits: best fit over all servers is the
		// lowest-ID member of the smallest sufficient bucket.
		for cnt := gang; cnt <= idx.maxCnt && best < 0; cnt++ {
			idx.buckets[g][cnt].ForEachFrom(first, func(sid gpu.ServerID) bool {
				best = sid
				return false
			})
		}
	}
	if best >= 0 {
		return idx.takeFrom(best, gang, idx.cut(gang))
	}

	// Spanning: most-free servers first (free count descending, then
	// server ID ascending — the bucket walk from maxCnt down yields
	// exactly that order), each contributing its lowest-ID free
	// devices.
	out := idx.spanOut[:0]
	need := gang
	for cnt := idx.maxCnt; cnt >= 1 && need > 0; cnt-- {
		idx.buckets[g][cnt].ForEachFrom(first, func(sid gpu.ServerID) bool {
			n := cnt
			if n > need {
				n = need
			}
			out = idx.takeFrom(sid, n, out)
			need -= n
			return need > 0
		})
	}
	idx.spanOut = out[:0]
	devs := append(idx.cut(len(out)), out...)
	slices.Sort(devs)
	return devs
}

// cut returns an empty list with room for exactly n devices, cut from
// the slab: appending n fills it in place and appending more copies it
// out. A list handed out is never written again — it stays some job's
// record of where it ran — and the slab moves past it for good.
func (idx *Index) cut(n int) []gpu.DeviceID {
	if cap(idx.slab)-len(idx.slab) < n {
		idx.slab = make([]gpu.DeviceID, 0, max(slabLen, n))
	}
	lo := len(idx.slab)
	idx.slab = idx.slab[:lo+n]
	return idx.slab[lo : lo : lo+n]
}

// takeFrom appends server sid's n lowest-ID free devices to dst, which
// for the single-server result is a fresh list from cut and for the
// spanning path the scratch it collects in. Devices are NOT taken
// here — PlaceRound takes the returned set.
func (idx *Index) takeFrom(sid gpu.ServerID, n int, dst []gpu.DeviceID) []gpu.DeviceID {
	srv := idx.c.Server(sid)
	for _, d := range srv.Devices {
		if n == 0 {
			break
		}
		if idx.freeDev[d] {
			dst = append(dst, d)
			n--
		}
	}
	return dst
}
