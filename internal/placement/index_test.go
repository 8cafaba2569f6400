package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
)

// TestPlaceIndexedDifferential drives Place and PlaceIndexed through
// randomized multi-round sequences — churning prev assignments, down
// servers, pinned jobs, and migration settings — and requires
// byte-identical Results every round. This is the index's
// equivalence contract.
func TestPlaceIndexedDifferential(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))

		specs := []gpu.Spec{
			{Gen: gpu.K80, Servers: 2 + rng.Intn(6), GPUsPerSrv: 2 + rng.Intn(4)},
			{Gen: gpu.V100, Servers: 1 + rng.Intn(5), GPUsPerSrv: 2 + rng.Intn(4)},
		}
		if rng.Intn(2) == 0 {
			specs = append(specs, gpu.Spec{Gen: gpu.P100, Servers: 1 + rng.Intn(3), GPUsPerSrv: 4})
		}
		c, err := gpu.New(specs...)
		if err != nil {
			t.Fatal(err)
		}
		gens := c.GensPresent()
		idx := NewIndex(c)

		jobs := make([]*job.Job, 12)
		for i := range jobs {
			jobs[i] = &job.Job{Spec: job.Spec{ID: job.ID(i + 1), Gang: 1 + rng.Intn(6)}}
		}

		prev := Assignment{}
		for round := 1; round <= 8; round++ {
			// Churn availability; the index diffs against last round.
			unavail := &gpu.ServerSet{}
			for _, srv := range c.Servers() {
				if rng.Float64() < 0.15 {
					unavail.Add(srv.ID)
				}
			}
			idx.SyncUnavail(unavail)

			// Pins live on the job record: a failed migration pins through
			// this round, the round-start refresh lapses last round's.
			var reqs []Request
			for _, j := range jobs {
				if rng.Float64() < 0.8 {
					reqs = append(reqs, Request{Job: j, Gen: gens[rng.Intn(len(gens))]})
					if rng.Float64() < 0.1 {
						j.NoteMigrationFailed(round)
					}
				}
				j.RefreshPin(round)
			}
			opt := Options{AllowMigration: rng.Float64() < 0.8, Down: unavail}

			want := Place(c, prev, reqs, opt)
			got := PlaceIndexed(idx, prev, reqs, opt)

			if !assignEqual(want.Assignment, got.Assignment) ||
				!idsEqual(want.Migrated, got.Migrated) || !idsEqual(want.Unplaced, got.Unplaced) {
				t.Fatalf("trial %d round %d: indexed placement diverged\nscan: %v\nidx:  %v",
					trial, round, render(want), render(got))
			}
			if err := Validate(c, got.Assignment); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			// Index must be back at baseline: every available server
			// fully free.
			for _, srv := range c.Servers() {
				wantCnt := len(srv.Devices)
				if unavail.Has(srv.ID) {
					wantCnt = 0
				}
				if int(idx.freeCnt[srv.ID]) != wantCnt {
					t.Fatalf("trial %d round %d: server %d freeCnt %d after restore, want %d",
						trial, round, srv.ID, idx.freeCnt[srv.ID], wantCnt)
				}
			}

			// Feed forward with churn: some jobs release their devices.
			prev = got.Assignment.Clone()
			for _, id := range job.SortedIDs(prev) {
				if rng.Float64() < 0.2 {
					delete(prev, id)
				}
			}
		}
	}
}

// TestSyncUnavailMatchesPlaceDown: SyncUnavail is to PlaceIndexed what
// Options.Down is to Place. Random sequences of down-sets on a
// mixed-generation cluster — servers going down, staying down, coming
// back, the set handed over nil, empty, repeated, or holding words with
// no member left — must place exactly as the rescan does, with prev fed
// forward unchurned so jobs are pushed off dying servers and the
// index's own set of unavailable servers never drifts from the set.
func TestSyncUnavailMatchesPlaceDown(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		c, err := gpu.New(
			gpu.Spec{Gen: gpu.K80, Servers: 3 + rng.Intn(4), GPUsPerSrv: 4},
			gpu.Spec{Gen: gpu.P100, Servers: 2 + rng.Intn(3), GPUsPerSrv: 2 + rng.Intn(3)},
			gpu.Spec{Gen: gpu.V100, Servers: 2 + rng.Intn(3), GPUsPerSrv: 8},
		)
		if err != nil {
			t.Fatal(err)
		}
		gens := c.GensPresent()
		idx := NewIndex(c)
		var reqs []Request
		for i := 0; i < 14; i++ {
			j := &job.Job{Spec: job.Spec{ID: job.ID(i + 1), Gang: 1 + rng.Intn(5)}}
			reqs = append(reqs, Request{Job: j, Gen: gens[rng.Intn(len(gens))]})
		}
		prev := Assignment{}
		var set *gpu.ServerSet
		for round := 0; round < 12; round++ {
			switch rng.Intn(5) {
			case 0: // everything back; nil and empty must mean the same
				set = nil
				if rng.Intn(2) == 0 {
					set = &gpu.ServerSet{}
				}
			case 1: // same set again: a no-op for the index
			default:
				next := &gpu.ServerSet{}
				for _, srv := range c.Servers() {
					switch {
					case set.Has(srv.ID) && rng.Float64() < 0.5: // stays down
						next.Add(srv.ID)
					case rng.Float64() < 0.2: // goes down
						next.Add(srv.ID)
					case rng.Float64() < 0.1: // named, but up
						next.Add(srv.ID)
						next.Remove(srv.ID)
					}
				}
				set = next
			}
			idx.SyncUnavail(set)
			idx.unavail.ForEachDiff(set, func(sid gpu.ServerID) {
				t.Fatalf("trial %d round %d: server %d is unavailable in one of the index and the set only", trial, round, sid)
			})

			opt := Options{AllowMigration: true, Down: set}
			want := Place(c, prev, reqs, opt)
			got := PlaceIndexed(idx, prev, reqs, opt)
			if !assignEqual(want.Assignment, got.Assignment) ||
				!idsEqual(want.Migrated, got.Migrated) || !idsEqual(want.Unplaced, got.Unplaced) {
				t.Fatalf("trial %d round %d (%d down): indexed placement diverged\nscan: %v\nidx:  %v",
					trial, round, set.Len(), render(want), render(got))
			}
			for id, devs := range got.Assignment {
				for _, d := range devs {
					if set.Has(c.Device(d).Server) {
						t.Fatalf("trial %d round %d: job %d placed on down server %d", trial, round, id, c.Device(d).Server)
					}
				}
			}
			prev = got.Assignment
		}
	}
}

func assignEqual(a, b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for id, devs := range a {
		if !reflect.DeepEqual(devs, b[id]) {
			return false
		}
	}
	return true
}

func idsEqual(a, b []job.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func render(r Result) string {
	ids := make([]job.ID, 0, len(r.Assignment))
	for id := range r.Assignment {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s := ""
	for _, id := range ids {
		s += fmt.Sprintf("%d:%v ", id, r.Assignment[id])
	}
	return fmt.Sprintf("assign=[%s] migrated=%v unplaced=%v", s, r.Migrated, r.Unplaced)
}
