// Free-capacity index: the incremental engine's replacement for the
// per-round full-cluster scan in Place. The index keeps, across
// rounds, which devices are free and a per-(generation, free-count)
// bucket of servers, so one placement request costs O(prev servers +
// buckets + gang) instead of O(all servers of the generation).
//
// Equivalence contract: PlaceIndexed must produce byte-identical
// Results to Place for the same inputs (asserted by the randomized
// differential test in index_test.go and the engine-level golden and
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
	"math/bits"
	"slices"

	"repro/internal/gpu"
)

// serverBitset is a fixed-size bitset over ServerIDs supporting O(1)
// add/remove and ascending-ID iteration via 64-bit words.
type serverBitset struct {
	words []uint64
}

func newServerBitset(n int) *serverBitset {
	return &serverBitset{words: make([]uint64, (n+63)/64)}
}

func (b *serverBitset) add(id gpu.ServerID)    { b.words[int(id)>>6] |= 1 << (uint(id) & 63) }
func (b *serverBitset) remove(id gpu.ServerID) { b.words[int(id)>>6] &^= 1 << (uint(id) & 63) }

// min returns the smallest ServerID present, or ok=false when empty.
func (b *serverBitset) min() (gpu.ServerID, bool) {
	for w, word := range b.words {
		if word != 0 {
			return gpu.ServerID(w<<6 + bits.TrailingZeros64(word)), true
		}
	}
	return 0, false
}

// forEach visits members in ascending ServerID order until fn returns
// false.
func (b *serverBitset) forEach(fn func(gpu.ServerID) bool) {
	for w, word := range b.words {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			if !fn(gpu.ServerID(w<<6 + bit)) {
				return
			}
			word &^= 1 << uint(bit)
		}
	}
}

// Index is the persistent free-capacity structure. Its baseline state
// is "every available server fully free"; PlaceIndexed temporarily
// takes devices while computing a round's assignment and releases
// them all before returning, so between calls the index always sits
// at baseline. Server availability (down or quarantined) is flipped
// at baseline by SyncUnavail, which takes the round's whole
// unavailable set and touches only the servers whose state changed.
//
// An Index is owned by one engine instance and is not safe for
// concurrent use.
type Index struct {
	c       *gpu.Cluster
	freeDev []bool  // by DeviceID: free right now
	freeCnt []int16 // by ServerID: number of free devices
	avail   []bool  // by ServerID: not down, not quarantined
	maxCnt  int     // largest GPUs-per-server in the cluster

	// buckets[gen][cnt] holds the available servers of gen with
	// exactly cnt free devices, cnt in 1..maxCnt (servers with zero
	// free devices live in no bucket). totalFree[gen] is the number
	// of free devices on available servers of gen.
	buckets   [gpu.NumGenerations][]*serverBitset
	totalFree [gpu.NumGenerations]int

	// unavail lists the servers currently marked unavailable, so
	// SyncUnavail finds the ones to bring back without a server scan.
	unavail []gpu.ServerID

	// Scratch reused across PlaceIndexed calls.
	taken    []gpu.DeviceID //gflint:noretain devices taken this call, for the baseline restore
	order    []Request      //gflint:noretain per-call scratch
	prevSrvs []gpu.ServerID //gflint:noretain per-call scratch
	spanOut  []gpu.DeviceID //gflint:noretain per-call scratch
}

// NewIndex builds the index at baseline: all servers available, all
// devices free.
func NewIndex(c *gpu.Cluster) *Index {
	idx := &Index{
		c:       c,
		freeDev: make([]bool, c.NumDevices()),
		freeCnt: make([]int16, c.NumServers()),
		avail:   make([]bool, c.NumServers()),
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
		idx.buckets[g] = make([]*serverBitset, idx.maxCnt+1)
		for cnt := 1; cnt <= idx.maxCnt; cnt++ {
			idx.buckets[g][cnt] = newServerBitset(c.NumServers())
		}
	}
	for i := range idx.freeDev {
		idx.freeDev[i] = true
	}
	for _, srv := range c.Servers() {
		idx.avail[srv.ID] = true
		idx.freeCnt[srv.ID] = int16(len(srv.Devices))
		idx.buckets[srv.Gen][len(srv.Devices)].add(srv.ID)
		idx.totalFree[srv.Gen] += len(srv.Devices)
	}
	return idx
}

// SyncUnavail makes the servers marked true in set the index's
// unavailable servers — what Options.Down is to Place — flipping only
// those whose state differs from the last call. Must be called at
// baseline (between PlaceIndexed calls). Cost is O(previous set + new
// set); an empty set on a fully available index costs nothing.
func (idx *Index) SyncUnavail(set map[gpu.ServerID]bool) {
	kept := idx.unavail[:0]
	for _, sid := range idx.unavail {
		if set[sid] {
			kept = append(kept, sid)
		} else {
			idx.setAvail(sid, true)
		}
	}
	idx.unavail = kept
	for sid, un := range set {
		if un && idx.avail[sid] {
			idx.setAvail(sid, false)
			idx.unavail = append(idx.unavail, sid)
		}
	}
	if len(idx.unavail) > len(kept) {
		slices.Sort(idx.unavail) // map order must not leak into the index's state
	}
}

// setAvail flips one server's availability at baseline, so an
// available server is always fully free.
func (idx *Index) setAvail(id gpu.ServerID, avail bool) {
	srv := idx.c.Server(id)
	n := len(srv.Devices)
	idx.avail[id] = avail
	if avail {
		for _, d := range srv.Devices {
			idx.freeDev[d] = true
		}
		idx.freeCnt[id] = int16(n)
		idx.buckets[srv.Gen][n].add(id)
		idx.totalFree[srv.Gen] += n
	} else {
		for _, d := range srv.Devices {
			idx.freeDev[d] = false
		}
		idx.freeCnt[id] = 0
		idx.buckets[srv.Gen][n].remove(id)
		idx.totalFree[srv.Gen] -= n
	}
}

// take marks one free device busy and moves its server down one
// bucket.
func (idx *Index) take(d gpu.DeviceID) {
	idx.freeDev[d] = false
	srv := idx.c.Device(d).Server
	g := idx.c.Server(srv).Gen
	cnt := int(idx.freeCnt[srv])
	idx.buckets[g][cnt].remove(srv)
	if cnt > 1 {
		idx.buckets[g][cnt-1].add(srv)
	}
	idx.freeCnt[srv]--
	idx.totalFree[g]--
	idx.taken = append(idx.taken, d)
}

// release undoes take.
func (idx *Index) release(d gpu.DeviceID) {
	idx.freeDev[d] = true
	srv := idx.c.Device(d).Server
	g := idx.c.Server(srv).Gen
	cnt := int(idx.freeCnt[srv])
	if cnt > 0 {
		idx.buckets[g][cnt].remove(srv)
	}
	idx.buckets[g][cnt+1].add(srv)
	idx.freeCnt[srv]++
	idx.totalFree[g]++
}

// restoreBaseline releases every device taken during one PlaceIndexed
// call.
func (idx *Index) restoreBaseline() {
	for _, d := range idx.taken {
		idx.release(d)
	}
	idx.taken = idx.taken[:0]
}

// PlaceIndexed is Place driven by the index instead of a cluster
// scan. Server availability comes from the index (SyncUnavail), so
// Options.Down is ignored — the caller must have synced fault state
// into the index. Returned device slices for jobs that kept their
// previous devices ALIAS the prev slices (no copy); Place's output
// values are identical either way.
func PlaceIndexed(idx *Index, prev Assignment, reqs []Request, opt Options) Result {
	c := idx.c
	res := Result{Assignment: make(Assignment, len(reqs))}
	defer idx.restoreBaseline()

	idx.order = append(idx.order[:0], reqs...)
	order := idx.order
	slices.SortFunc(order, byGangThenID)

	// Phase 1 — stability.
	pending := order[:0]
	for _, r := range order {
		devs, ok := prev[r.Job.ID]
		if ok && len(devs) == r.Job.Gang && devicesOnGen(c, devs, r.Gen) && allFree(idx.freeDev, devs) {
			for _, d := range devs {
				idx.take(d)
			}
			res.Assignment[r.Job.ID] = devs
			continue
		}
		pending = append(pending, r)
	}

	// Phase 2 — place the rest.
	for _, r := range pending {
		prevDevs, ranBefore := prev[r.Job.ID]
		if ranBefore && (!opt.AllowMigration || r.Job.Pinned()) {
			res.Unplaced = append(res.Unplaced, r.Job.ID)
			continue
		}
		devs := idx.findDevices(r, prevDevs)
		if devs == nil {
			res.Unplaced = append(res.Unplaced, r.Job.ID)
			continue
		}
		for _, d := range devs {
			idx.take(d)
		}
		res.Assignment[r.Job.ID] = devs
		if ranBefore && !sameServers(c, prevDevs, devs) {
			res.Migrated = append(res.Migrated, r.Job.ID)
		}
	}
	slices.Sort(res.Migrated)
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
	best := gpu.ServerID(-1)
	bestCnt := 0
	for _, sid := range prevSrvs {
		if !idx.avail[sid] {
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
		for cnt := gang; cnt <= idx.maxCnt; cnt++ {
			if sid, ok := idx.buckets[g][cnt].min(); ok {
				best = sid
				break
			}
		}
	}
	if best >= 0 {
		return idx.takeFrom(best, gang, nil)
	}

	// Spanning: most-free servers first (free count descending, then
	// server ID ascending — the bucket walk from maxCnt down yields
	// exactly that order), each contributing its lowest-ID free
	// devices.
	out := idx.spanOut[:0]
	need := gang
	for cnt := idx.maxCnt; cnt >= 1 && need > 0; cnt-- {
		idx.buckets[g][cnt].forEach(func(sid gpu.ServerID) bool {
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
	return sortedCopy(out)
}

// takeFrom collects server sid's n lowest-ID free devices. With a nil
// dst it returns a fresh sorted slice (the single-server result);
// otherwise it appends to dst for the spanning path. Devices are NOT
// taken here — PlaceIndexed takes the returned set.
func (idx *Index) takeFrom(sid gpu.ServerID, n int, dst []gpu.DeviceID) []gpu.DeviceID {
	srv := idx.c.Server(sid)
	if dst == nil {
		dst = make([]gpu.DeviceID, 0, n)
	}
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
