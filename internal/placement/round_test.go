package placement

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
)

// TestPlaceRoundDifferential holds the persistent path to the
// from-scratch oracle: one Index lives through a whole sequence of
// rounds while prev, Place's input, is kept beside it by the engine's
// merge rule — a dispatched job takes its new devices, an unplaced or
// unrequested one keeps its old ones, a finished one is gone. That rule
// is what builds stale entries overlapping a holder's devices (a job
// sits out a round, another is placed where it was, the first comes
// back), the case the contested-keep rule exists for and the one
// TestPlaceIndexedDifferential, which feeds forward only what was just
// placed, never reaches. Every door that changes who holds what is
// driven: jobs retiring, migrations failing (the job gives its target
// back and is again last seen where it came from), SyncUnavail taking
// servers from under holders and returning them, pins, AllowMigration
// off, and a restore (a fresh Index, every job's devices stale). After
// every round and every door the index's free counts, buckets, totals
// and holder table are recounted from the jobs that hold.
func TestPlaceRoundDifferential(t *testing.T) {
	contested, evictions, failedMoves, tookHeld, restores := 0, 0, 0, 0, 0
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		specs := []gpu.Spec{
			{Gen: gpu.K80, Servers: 2 + rng.Intn(5), GPUsPerSrv: 2 + rng.Intn(3)},
			{Gen: gpu.V100, Servers: 2 + rng.Intn(4), GPUsPerSrv: 2 + rng.Intn(3)},
		}
		c, err := gpu.New(specs...)
		if err != nil {
			t.Fatal(err)
		}
		gens := c.GensPresent()
		idx := NewIndex(c)

		nextID := job.ID(1)
		newJob := func() *job.Job {
			j := &job.Job{Spec: job.Spec{ID: nextID, Gang: 1 + rng.Intn(4)}}
			nextID++
			return j
		}
		var jobs []*job.Job
		for i := 0; i < 14; i++ {
			jobs = append(jobs, newJob())
		}
		wantGen := map[job.ID]gpu.Generation{} // a job mostly asks for where it was
		prev := Assignment{}
		unavail := &gpu.ServerSet{}

		for round := 1; round <= 14; round++ {
			// Servers go away — under holders too — stay away, come back.
			next := &gpu.ServerSet{}
			for _, srv := range c.Servers() {
				if (unavail.Has(srv.ID) && rng.Float64() < 0.5) || rng.Float64() < 0.08 {
					next.Add(srv.ID)
					if !unavail.Has(srv.ID) {
						for _, d := range srv.Devices {
							if idx.holder[d] != nil {
								tookHeld++
								break
							}
						}
					}
				}
			}
			unavail = next
			idx.SyncUnavail(unavail)
			recount(t, idx, jobs, unavail)

			var reqs []Request
			for _, j := range jobs {
				j.RefreshPin(round)
				if rng.Float64() < 0.7 {
					g, ok := wantGen[j.ID]
					if !ok || rng.Float64() < 0.15 {
						g = gens[rng.Intn(len(gens))]
					}
					wantGen[j.ID] = g
					reqs = append(reqs, Request{Job: j, Gen: g})
				}
			}
			rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
			opt := Options{AllowMigration: rng.Float64() < 0.85, Down: unavail}

			// What the contested-keep rule is about to see: the requests
			// that hold nothing but were last where a holder now is, and the
			// holders that are asked for again where they are.
			staying := map[job.ID]bool{}
			overlaps := map[job.ID][]*job.Job{}
			for _, r := range reqs {
				if k := r.Job.HoldSlot(); k != 0 {
					staying[r.Job.ID] = gpu.Generation(idx.held[k-1].gen) == r.Gen
					continue
				}
				for _, d := range r.Job.Devices() {
					if h := idx.holder[d]; h != nil && !slices.Contains(overlaps[r.Job.ID], h) {
						overlaps[r.Job.ID] = append(overlaps[r.Job.ID], h)
					}
				}
			}

			want := Place(c, prev, reqs, opt)
			got := idx.PlaceRound(reqs, opt)

			var moved, unplaced []job.ID
			for i, r := range reqs {
				id := r.Job.ID
				wantDevs, placed := want.Assignment[id]
				switch got.Marks[i] {
				case Unplaced:
					unplaced = append(unplaced, id)
					if !slices.Equal(r.Job.Devices(), prev[id]) || r.Job.HoldSlot() != 0 {
						t.Fatalf("trial %d round %d: unplaced job %d is on %v (slot %d), was last on %v",
							trial, round, id, r.Job.Devices(), r.Job.HoldSlot(), prev[id])
					}
					continue
				case Moved:
					moved = append(moved, id)
				case Kept:
					if !slices.Equal(r.Job.Devices(), prev[id]) {
						t.Fatalf("trial %d round %d: job %d marked kept on %v, was last on %v", trial, round, id, r.Job.Devices(), prev[id])
					}
					if hs := overlaps[id]; len(hs) > 0 {
						contested++
						for _, h := range hs {
							if staying[h.ID] {
								evictions++
							}
						}
					}
				}
				if !placed || !slices.Equal(r.Job.Devices(), wantDevs) || r.Job.HoldSlot() == 0 {
					t.Fatalf("trial %d round %d: job %d (mark %d) on %v, reference %v\nreference: %s",
						trial, round, id, got.Marks[i], r.Job.Devices(), wantDevs, render(want))
				}
			}
			slices.Sort(moved)
			slices.Sort(unplaced)
			var movedList []job.ID
			for _, m := range got.Moved {
				movedList = append(movedList, m.Job.ID)
				if !slices.Equal(m.From, prev[m.Job.ID]) {
					t.Fatalf("trial %d round %d: job %d moved from %v, was last on %v", trial, round, m.Job.ID, m.From, prev[m.Job.ID])
				}
			}
			if !idsEqual(moved, want.Migrated) || !idsEqual(movedList, want.Migrated) || !idsEqual(unplaced, want.Unplaced) {
				t.Fatalf("trial %d round %d: moved %v (listed %v) unplaced %v\nreference: %s",
					trial, round, moved, movedList, unplaced, render(want))
			}
			recount(t, idx, jobs, unavail)

			// The engine's merge rule, and its doors.
			failed := map[job.ID]bool{}
			for _, m := range got.Moved {
				if rng.Float64() < 0.3 { // the migration fails: pinned, back where it came from
					failed[m.Job.ID] = true
					failedMoves++
					m.Job.NoteMigrationFailed(round + 1 + rng.Intn(2))
					idx.Release(m.Job)
					m.Job.SetDevices(m.From, 0)
				}
			}
			for i, r := range reqs {
				if got.Marks[i] != Unplaced && !failed[r.Job.ID] {
					prev[r.Job.ID] = want.Assignment[r.Job.ID]
				}
			}
			live := jobs[:0]
			for _, j := range jobs {
				if rng.Float64() < 0.08 { // finishes
					idx.Release(j)
					delete(prev, j.ID)
					delete(wantGen, j.ID)
					continue
				}
				live = append(live, j)
			}
			jobs = live
			for len(jobs) < 10 || rng.Float64() < 0.3 {
				jobs = append(jobs, newJob())
			}
			if rng.Float64() < 0.1 { // a restored engine: nothing is held
				restores++
				idx = NewIndex(c)
				for _, j := range jobs {
					j.SetDevices(j.Devices(), 0)
				}
				unavail = &gpu.ServerSet{}
			}
			for _, j := range jobs {
				if !slices.Equal(j.Devices(), prev[j.ID]) {
					t.Fatalf("trial %d round %d: job %d's record says %v, the merge rule %v", trial, round, j.ID, j.Devices(), prev[j.ID])
				}
			}
			recount(t, idx, jobs, unavail)
		}
	}
	t.Logf("%d contested keeps won, %d holders evicted by them, %d failed moves, %d servers taken from under holders, %d restores",
		contested, evictions, failedMoves, tookHeld, restores)
	if contested == 0 || evictions == 0 || failedMoves == 0 || tookHeld == 0 || restores == 0 {
		t.Error("a door was never driven")
	}
}

// recount rebuilds the index's derived state from first principles — a
// device is free unless its server is unavailable or a job of jobs
// holds it — and compares every table.
func recount(t *testing.T, idx *Index, jobs []*job.Job, unavail *gpu.ServerSet) {
	t.Helper()
	c := idx.c
	holder := make([]*job.Job, c.NumDevices())
	holders := 0
	for _, j := range jobs {
		k := j.HoldSlot()
		if k == 0 {
			continue
		}
		holders++
		if int(k) > len(idx.held) || idx.held[k-1].job != j {
			t.Fatalf("job %d claims slot %d, the index has it otherwise", j.ID, k)
		}
		if len(j.Devices()) != j.Gang {
			t.Fatalf("job %d holds %v, gang %d", j.ID, j.Devices(), j.Gang)
		}
		for _, d := range j.Devices() {
			if holder[d] != nil {
				t.Fatalf("device %d held by jobs %d and %d", d, holder[d].ID, j.ID)
			}
			holder[d] = j
		}
	}
	for _, e := range idx.held {
		if e.job != nil {
			holders--
		}
	}
	if holders != 0 {
		t.Fatalf("the index lists %d holders the jobs do not account for", -holders)
	}
	var totalFree [gpu.NumGenerations]int
	for _, srv := range c.Servers() {
		free := 0
		for _, d := range srv.Devices {
			wantFree := !unavail.Has(srv.ID) && holder[d] == nil
			if unavail.Has(srv.ID) && holder[d] != nil {
				t.Fatalf("job %d holds device %d of unavailable server %d", holder[d].ID, d, srv.ID)
			}
			if idx.freeDev[d] != wantFree || idx.holder[d] != holder[d] {
				t.Fatalf("device %d: free=%v holder=%v, recount says free=%v holder=%v", d, idx.freeDev[d], idx.holder[d], wantFree, holder[d])
			}
			if wantFree {
				free++
			}
		}
		if int(idx.freeCnt[srv.ID]) != free || idx.unavail.Has(srv.ID) != unavail.Has(srv.ID) {
			t.Fatalf("server %d: freeCnt %d unavailable %v, recount says %d free, unavailable %v",
				srv.ID, idx.freeCnt[srv.ID], idx.unavail.Has(srv.ID), free, unavail.Has(srv.ID))
		}
		totalFree[srv.Gen] += free
		for cnt := 1; cnt <= idx.maxCnt; cnt++ {
			in := idx.buckets[srv.Gen][cnt].Has(srv.ID)
			if in != (cnt == free) {
				t.Fatalf("server %d with %d free: in bucket %d = %v", srv.ID, free, cnt, in)
			}
		}
	}
	if totalFree != idx.totalFree {
		t.Fatalf("totalFree %v, recount says %v", idx.totalFree, totalFree)
	}
}
