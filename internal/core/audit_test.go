package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/trade"
	"repro/internal/workload"
)

// mkAuditor builds a strict auditor over a small cluster with one
// active gang-1 job, returning both plus the job's device assignment.
func mkAuditor(t *testing.T) (*auditor, []*job.Job, []gpu.DeviceID) {
	t.Helper()
	cl := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 2, GPUsPerSrv: 2})
	specs := workload.BatchJobs("u", workload.DefaultZoo().MustGet("vae"), 1, 1, 1)
	specs, _ = workload.AssignIDs(specs)
	j, err := job.New(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	a := newAuditor(AuditStrict, cl, 360, placement.NewOwners(cl))
	a.beginRound(1, 0, map[gpu.Generation]int{gpu.K80: 4}, nil)
	return a, []*job.Job{j}, cl.Server(0).Devices
}

func TestAuditQuarantineInvariant(t *testing.T) {
	a, jobs, devs := mkAuditor(t)
	placed := []Quantum{{Job: jobs[0], Devs: devs[:1]}}

	// Placement on a healthy, unquarantined server is clean.
	a.checkAssignment(placed, nil, nil)
	if n := a.rep.Counts[InvQuarantine]; n != 0 {
		t.Fatalf("clean placement flagged: %d quarantine violations", n)
	}

	// The same placement with the server quarantined must violate
	// InvQuarantine — and only it (the server is not down).
	a.checkAssignment(placed, nil, servers(0))
	if n := a.rep.Counts[InvQuarantine]; n != 1 {
		t.Errorf("quarantined-server placement: %d violations, want 1", n)
	}
	if n := a.rep.Counts[InvDownServer]; n != 0 {
		t.Errorf("quarantine misreported as down-server: %d", n)
	}

	// Down and quarantined are independent invariants: both fire when
	// both states hold.
	a.checkAssignment(placed, servers(0), servers(0))
	if a.rep.Counts[InvQuarantine] != 2 || a.rep.Counts[InvDownServer] != 1 {
		t.Errorf("down+quarantined: got quarantine=%d down=%d, want 2 and 1",
			a.rep.Counts[InvQuarantine], a.rep.Counts[InvDownServer])
	}
}

func TestAuditCompensationInvariant(t *testing.T) {
	cases := []struct {
		name                      string
		before, lost, repaid, aft float64
		violations                int
	}{
		{"clean accrual", 0, 720, 0, 720, 0},
		{"clean drain", 720, 0, 300, 420, 0},
		{"clean payoff", 500, 0, 500, 0, 0},
		{"negative repaid", 100, 0, -5, 105, 1},
		{"repaid exceeds deficit", 100, 0, 150, 0, 1}, // balance fine: want is negative-clamped
		{"books off", 100, 100, 0, 100, 1},
		{"negative after", 0, 0, 0, -50, 2}, // negative + balance
	}
	for _, tc := range cases {
		a, _, _ := mkAuditor(t)
		a.checkCompensation("u", tc.before, tc.lost, tc.repaid, tc.aft)
		if got := a.rep.Counts[InvCompensation]; got != tc.violations {
			t.Errorf("%s: %d violations, want %d", tc.name, got, tc.violations)
		}
	}
}

func TestAuditCompensationMonotoneDrain(t *testing.T) {
	// While a user is active and accrues no new losses, the deficit
	// must never rise: a round claiming it did is a violation.
	a, _, _ := mkAuditor(t)
	deficit := 1000.0
	for round := 0; round < 5; round++ {
		repaid := 150.0
		after := deficit - repaid
		a.checkCompensation("u", deficit, 0, repaid, after)
		deficit = after
	}
	if n := a.rep.Counts[InvCompensation]; n != 0 {
		t.Fatalf("monotone drain flagged: %d violations", n)
	}
	// A deficit that grows without a loss must be flagged.
	a.checkCompensation("u", deficit, 0, 0, deficit+1)
	if n := a.rep.Counts[InvCompensation]; n != 1 {
		t.Fatalf("spontaneous deficit growth not flagged (violations=%d)", n)
	}
}

// TestAuditFirstViolationIsDeterministic: a strict run aborts with the
// round's first violation, so which one is first must not depend on map
// order. Two generations over-charged in one round — and two users with
// negative tickets — must name the same generation, and the same user,
// in every one of 200 fresh auditors.
func TestAuditFirstViolationIsDeterministic(t *testing.T) {
	cl := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 1, GPUsPerSrv: 2},
		gpu.Spec{Gen: gpu.V100, Servers: 1, GPUsPerSrv: 2},
	)
	caps := map[gpu.Generation]int{gpu.K80: 2, gpu.V100: 2}
	firstOf := func(tickets map[job.UserID]float64) map[string]int {
		seen := map[string]int{}
		for i := 0; i < 200; i++ {
			a := newAuditor(AuditStrict, cl, 360, placement.NewOwners(cl))
			a.beginRound(1, 0, caps, tickets)
			a.noteBusy(gpu.V100, 3*360)
			a.noteBusy(gpu.K80, 3*360)
			err := a.endRound()
			if err == nil {
				t.Fatal("over-charged round passed the audit")
			}
			seen[err.Error()]++
		}
		return seen
	}
	if seen := firstOf(nil); len(seen) != 1 {
		t.Errorf("conservation: the aborting violation varies between runs: %v", seen)
	}
	if seen := firstOf(map[job.UserID]float64{"zed": -1, "amy": -2, "bob": 1, "kim": -3}); len(seen) != 1 {
		t.Errorf("tickets: the aborting violation varies between runs: %v", seen)
	}
}

// TestAuditTradePrice holds every trade to the market's contract: two
// distinct users of unequal speedups, a price strictly between them, a
// positive amount of fast capacity paid for at that price. Each broken
// clause is one violation; a NaN fails its clause.
func TestAuditTradePrice(t *testing.T) {
	good := trade.Trade{Buyer: "dense", Seller: "mem", Fast: gpu.V100, Slow: gpu.K80,
		FastGPUs: 1.5, SlowGPUs: 1.5 * 2.5, Price: 2.5, BuyerSpeedup: 4.4, SellerSpeedup: 1.2}
	cases := map[string]func(*trade.Trade){
		"good":            func(*trade.Trade) {},
		"self":            func(tr *trade.Trade) { tr.Seller = tr.Buyer },
		"equal speedups":  func(tr *trade.Trade) { tr.SellerSpeedup, tr.BuyerSpeedup, tr.Price = 2.5, 2.5, 2.5 },
		"at seller":       func(tr *trade.Trade) { tr.Price, tr.SlowGPUs = 1.2, 1.2*1.5 },
		"below seller":    func(tr *trade.Trade) { tr.Price, tr.SlowGPUs = 1, 1.5 },
		"at buyer":        func(tr *trade.Trade) { tr.Price, tr.SlowGPUs = 4.4, 4.4*1.5 },
		"NaN price":       func(tr *trade.Trade) { tr.Price = math.NaN() },
		"zero fast":       func(tr *trade.Trade) { tr.FastGPUs, tr.SlowGPUs = 0, 0 },
		"negative fast":   func(tr *trade.Trade) { tr.FastGPUs, tr.SlowGPUs = -1, -2.5 },
		"underpaid":       func(tr *trade.Trade) { tr.SlowGPUs = 1.5*2.5 - 1e-6 },
		"overpaid":        func(tr *trade.Trade) { tr.SlowGPUs = 1.5*2.5 + 1e-6 },
		"NaN slow":        func(tr *trade.Trade) { tr.SlowGPUs = math.NaN() },
		"rounding within": func(tr *trade.Trade) { tr.SlowGPUs = math.Nextafter(1.5*2.5, 4) },
	}
	for name, mutate := range cases {
		a, _, _ := mkAuditor(t)
		tr := good
		mutate(&tr)
		a.checkTrades([]trade.Trade{good, tr})
		want := 1
		if name == "good" || name == "rounding within" {
			want = 0
		}
		if got := a.rep.Counts[InvTradePrice]; got != want || a.rep.Checks != 2 {
			t.Errorf("%s: %d violations over %d checks, want %d over 2: %v", name, got, a.rep.Checks, want, a.rep.Violations)
		}
	}
}

// tradePlanter is a trading FairPolicy that adds one broken trade to its
// decision in a chosen round.
type tradePlanter struct {
	*FairPolicy
	round, at int
	bad       trade.Trade
}

func (p *tradePlanter) Decide(st *RoundState) Decision {
	dec := p.FairPolicy.Decide(st)
	if p.round++; p.round == p.at {
		dec.Trades = append(dec.Trades, p.bad)
	}
	return dec
}

// TestAuditCatchesPlantedTrade runs a trading policy that makes real
// trades under the strict auditor: clean as it is, and aborted with an
// InvTradePrice error once a trade priced at the seller's speedup is
// planted among them.
func TestAuditCatchesPlantedTrade(t *testing.T) {
	build := func() Config {
		var specs []job.Spec
		specs = append(specs, workload.BatchJobs("mem", zoo.MustGet("vae"), 12, 1, 300)...)
		specs = append(specs, workload.BatchJobs("dense", zoo.MustGet("resnext50"), 12, 1, 300)...)
		specs, _ = workload.AssignIDs(specs)
		return Config{Cluster: mixedCluster(), Specs: specs, Seed: 7}
	}
	bad := trade.Trade{Buyer: "dense", Seller: "mem", Fast: gpu.V100, Slow: gpu.K80,
		FastGPUs: 1, SlowGPUs: 1.2, Price: 1.2, BuyerSpeedup: 4.4, SellerSpeedup: 1.2}
	horizon := simclock.Time(24 * simclock.Hour)
	for _, at := range []int{0, 5} { // round 0 never comes: the clean run
		sim, err := New(build(), &tradePlanter{FairPolicy: MustNewFairPolicy(FairConfig{EnableTrading: true}), at: at, bad: bad})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(horizon)
		var ae *AuditError
		switch {
		case at == 0 && err != nil:
			t.Fatalf("clean trading run: %v", err)
		case at == 0 && res.TradeCount == 0:
			t.Fatal("no trades executed: the clean run checks nothing")
		case at > 0 && !errors.As(err, &ae):
			t.Fatalf("planted trade at round %d: got %v, want an audit error", at, err)
		case at > 0 && (ae.Violation.Invariant != InvTradePrice || ae.Violation.Round != at):
			t.Fatalf("planted trade at round %d: got %v", at, ae.Violation)
		}
	}
}
