package distrib

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netchaos"
)

// decodeFault turns one recipe byte into a bounded network fault:
// bits 0-2 pick the kind, bits 3-4 the agent, bit 5 the direction,
// bits 6-7 the start round (1..4, two rounds long). Zero means no
// fault. Windows stay within rounds 1..6 and the lease below is six
// rounds, so no schedule can push an agent past the down threshold —
// placement stays static and books must balance on heal.
func decodeFault(b uint8) *netchaos.Fault {
	if b == 0 {
		return nil
	}
	kinds := []netchaos.Kind{
		netchaos.Drop, netchaos.Dup, netchaos.Reorder, netchaos.Delay,
		netchaos.Corrupt, netchaos.OneWay, netchaos.Partition,
	}
	agent := fmt.Sprintf("agent-%d", (b>>3)%3)
	from, to := agent, "central"
	if (b>>5)&1 == 1 {
		from, to = "central", agent
	}
	start := 1 + int((b>>6)&3)
	return &netchaos.Fault{
		Kind: kinds[b%7], From: from, To: to,
		Rounds: faults.RoundInterval{From: start, To: start + 2},
	}
}

// FuzzNetChaos is a native fuzz target for the partition-tolerant
// protocol: the fuzzer composes up to three network faults from a
// compact byte recipe and runs the full distributed chaos harness.
// Every input must terminate with all jobs finished and balanced
// books — per-user usage never below the undisturbed baseline (a
// fault may cost an extra charged round, e.g. a reorder displacing a
// job's finishing report, but can never erase one) — on top of the
// harness's own invariants (useful ≤ occupied, nonzero usage).
//
// Run with: go test -fuzz FuzzNetChaos -fuzztime 30s ./internal/distrib
func FuzzNetChaos(f *testing.F) {
	// Seed corpus: (seed, three fault recipe bytes). Covers every
	// kind, both directions, and stacked same-link faults.
	f.Add(int64(1), uint8(0x41), uint8(0), uint8(0))       // drop central→agent-0 rounds 1-2
	f.Add(int64(2), uint8(0x0a), uint8(0x83), uint8(0))    // reorder + delay, agent-side
	f.Add(int64(3), uint8(0x2d), uint8(0xe6), uint8(0))    // oneway out, partition back
	f.Add(int64(4), uint8(0x04), uint8(0x44), uint8(0))    // corrupt both directions
	f.Add(int64(5), uint8(0x09), uint8(0x49), uint8(0x89)) // dup storm across windows
	f.Fuzz(func(t *testing.T, seed int64, b1, b2, b3 uint8) {
		var fs []netchaos.Fault
		for _, b := range []uint8{b1, b2, b3} {
			if ft := decodeFault(b); ft != nil {
				fs = append(fs, *ft)
			}
		}
		if len(fs) == 0 {
			return
		}
		if seed == 0 {
			seed = 1
		}
		cfg := ChaosConfig{
			Seed:  seed,
			Users: 2, JobsPerUser: 3, JobQuanta: 3.2,
			Agents: 3, GPUsPerAgent: 2,
			MaxRounds:       40,
			ReportTimeout:   100 * time.Millisecond,
			LeaseRounds:     6,
			AllowUsageDrift: true,
			Net:             &netchaos.Config{Seed: seed, Faults: fs},
		}
		sum, err := RunChaos(cfg)
		if err != nil {
			t.Fatalf("schedule %v: %v", fs, err)
		}
		for u, base := range sum.Baseline.UsageByUser {
			got := sum.Faulted.UsageByUser[u]
			if got < base-1e-6 {
				t.Errorf("user %s lost usage: baseline %v, faulted %v (schedule %v)", u, base, got, fs)
			}
			// Drift is bounded: at worst each fault displaces each of
			// the user's job finishes by one charged round.
			slack := float64(len(fs)) * float64(cfg.JobsPerUser) * float64(cfg.Quantum)
			if cfg.Quantum == 0 {
				slack = float64(len(fs)) * float64(cfg.JobsPerUser) * 360
			}
			if got > base+slack+1e-6 {
				t.Errorf("user %s overcharged: baseline %v, faulted %v, slack %v (schedule %v)", u, base, got, slack, fs)
			}
		}
	})
}
