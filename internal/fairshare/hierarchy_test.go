package fairshare

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
)

func orgFixture() map[string]*Org {
	return map[string]*Org{
		"research": {Tickets: 2, Weights: map[job.UserID]float64{"r1": 1, "r2": 1, "r3": 2}},
		"prod":     {Tickets: 2, Weights: map[job.UserID]float64{"p1": 1}},
	}
}

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(nil); err == nil {
		t.Error("empty hierarchy accepted")
	}
	bad := []map[string]*Org{
		{"a": nil},
		{"a": {Tickets: 0, Weights: map[job.UserID]float64{"u": 1}}},
		{"a": {Tickets: 1, Weights: nil}},
		{"a": {Tickets: 1, Weights: map[job.UserID]float64{"u": 0}}},
		{"a": {Tickets: 1, Weights: map[job.UserID]float64{"u": 1}},
			"b": {Tickets: 1, Weights: map[job.UserID]float64{"u": 1}}}, // dup user
	}
	for i, o := range bad {
		if _, err := NewHierarchy(o); err == nil {
			t.Errorf("bad hierarchy %d accepted", i)
		}
	}
	if _, err := NewHierarchy(orgFixture()); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
}

func TestHierarchyUsers(t *testing.T) {
	h := MustNewHierarchy(orgFixture())
	users := h.Users()
	want := []job.UserID{"p1", "r1", "r2", "r3"}
	if len(users) != len(want) {
		t.Fatalf("Users = %v", users)
	}
	for i := range want {
		if users[i] != want[i] {
			t.Fatalf("Users = %v, want %v", users, want)
		}
	}
}

func TestFlattenAllActive(t *testing.T) {
	h := MustNewHierarchy(orgFixture())
	tk := h.Flatten([]job.UserID{"r1", "r2", "r3", "p1"})
	// research's 2 tickets split 1:1:2 over r1,r2,r3; prod's 2 go to p1.
	if !almost(tk["r1"], 0.5) || !almost(tk["r2"], 0.5) || !almost(tk["r3"], 1.0) {
		t.Errorf("research tickets = %v", tk)
	}
	if !almost(tk["p1"], 2.0) {
		t.Errorf("prod tickets = %v", tk["p1"])
	}
}

func TestFlattenPartialActivity(t *testing.T) {
	h := MustNewHierarchy(orgFixture())
	// Only r1 active in research: it inherits the whole org pool, so
	// the org's standing against prod is preserved.
	tk := h.Flatten([]job.UserID{"r1", "p1"})
	if !almost(tk["r1"], 2.0) || !almost(tk["p1"], 2.0) {
		t.Errorf("tickets = %v, want r1 and p1 at 2 each", tk)
	}
	if _, ok := tk["r2"]; ok {
		t.Error("inactive user got tickets")
	}
	// Unknown users get nothing.
	tk = h.Flatten([]job.UserID{"stranger"})
	if len(tk) != 0 {
		t.Errorf("stranger got %v", tk)
	}
}

func TestFlattenOrgFullyIdle(t *testing.T) {
	h := MustNewHierarchy(orgFixture())
	tk := h.Flatten([]job.UserID{"p1"})
	if len(tk) != 1 || !almost(tk["p1"], 2) {
		t.Errorf("tickets = %v", tk)
	}
}

// Org-level fairness end to end: whatever the member counts, the two
// orgs' aggregate water-filled shares stay 1:1.
func TestHierarchyOrgLevelShares(t *testing.T) {
	h := MustNewHierarchy(orgFixture())
	active := []job.UserID{"r1", "r2", "r3", "p1"}
	tk := h.Flatten(active)
	demand := map[job.UserID]float64{"r1": 100, "r2": 100, "r3": 100, "p1": 100}
	shares := Compute(tk, demand, 40)
	research := shares["r1"] + shares["r2"] + shares["r3"]
	prod := shares["p1"]
	if !almost(research, 20) || !almost(prod, 20) {
		t.Fatalf("org shares research=%v prod=%v, want 20/20", research, prod)
	}
	// Intra-org: r3 has weight 2 ⇒ twice r1's share.
	if math.Abs(shares["r3"]-2*shares["r1"]) > 1e-9 {
		t.Errorf("intra-org weights not honored: %v", shares)
	}
}

// TestFlattenIntoMatchesFlatten holds FlattenInto, bit for bit, to the
// map Flatten it replaced (export_test.go) over random hierarchies —
// 1 to 8 orgs of 1 to 12 members with random tickets and weights — and
// random active sets, which name users of no org too; and a call that is
// handed back its last result allocates nothing.
func TestFlattenIntoMatchesFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tickets []float64
	for trial := 0; trial < 500; trial++ {
		orgs := make(map[string]*Org)
		var all []job.UserID
		for k := range 1 + rng.Intn(8) {
			o := &Org{Tickets: 0.1 + 10*rng.Float64(), Weights: make(map[job.UserID]float64)}
			for range 1 + rng.Intn(12) {
				u := job.UserID(fmt.Sprintf("u%03d-%d", rng.Intn(400), len(all))) // distinct, in random order
				all = append(all, u)
				o.Weights[u] = 0.01 + 5*rng.Float64()
			}
			orgs[fmt.Sprintf("org%d", k)] = o
		}
		h, err := NewHierarchy(orgs)
		if err != nil {
			t.Fatal(err)
		}
		var active []job.UserID
		for _, u := range all {
			if rng.Intn(3) > 0 {
				active = append(active, u)
			}
		}
		for range rng.Intn(4) {
			active = append(active, job.UserID(fmt.Sprintf("x%03d", rng.Intn(50)))) // in no org
		}
		slices.Sort(active)
		active = slices.Compact(active)
		want := h.Flatten(active)
		tickets = h.FlattenInto(active, tickets)
		for i, u := range active {
			if math.Float64bits(tickets[i]) != math.Float64bits(want[u]) {
				t.Fatalf("trial %d: %s gets %v tickets, the map form %v", trial, u, tickets[i], want[u])
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { tickets = h.FlattenInto(active, tickets) }); allocs != 0 {
			t.Fatalf("trial %d: FlattenInto handed its last result makes %v allocations", trial, allocs)
		}
	}
}
