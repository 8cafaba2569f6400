package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fairshare"
	"repro/internal/faults"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/stride"
	"repro/internal/trade"
)

// Layer probes time a layer's public function on inputs taken from the
// workload's own mid-run round (users, active jobs, capacity by
// generation), so a change to one layer shows at the shape where that
// workload exercises it. They run after the measured run, in the
// traced child only.

// probeBudget bounds one probe's repetitions: enough calls for a
// stable mean, cut off by time on the big shapes.
const (
	probeMinCalls  = 1
	probeMaxCalls  = 200
	probeBudget    = 150 * time.Millisecond
	placeProbeReqs = 1000
)

// timeCalls runs fn repeatedly within the probe budget and returns the
// mean time per call.
func timeCalls(fn func()) time.Duration {
	start := time.Now()
	n := 0
	for n < probeMaxCalls && (n < probeMinCalls || time.Since(start) < probeBudget) {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probePolicyLayers times fairshare, trade, stride and placement on
// the captured round.
func (r *rep) probePolicyLayers(in *probeInput) error {
	if in == nil {
		return fmt.Errorf("probe: no round captured")
	}
	gpus := 0
	for _, c := range in.caps {
		gpus += c
	}
	capTotal := float64(gpus)
	r.M["fairshare.compute_us_per_call"] = us(timeCalls(func() {
		fairshare.Compute(in.tickets, in.demand, capTotal)
	}))
	var alloc fairshare.Allocation
	r.M["fairshare.alloc_solve_us_per_call"] = us(timeCalls(func() {
		alloc = fairshare.ComputeAllocation(in.tickets, in.demand, in.caps)
	}))
	solver := fairshare.NewAllocationSolver()
	solver.Solve(in.tickets, in.demand, in.caps)
	r.M["fairshare.alloc_resolve_us_per_call"] = us(timeCalls(func() {
		solver.Solve(in.tickets, in.demand, in.caps) // unchanged inputs: the memo hit
	}))

	var trades []trade.Trade
	var tradeErr error
	r.M["trade.run_us_per_call"] = us(timeCalls(func() {
		_, trades, tradeErr = trade.Run(alloc, in.values, in.demand, trade.Config{})
	}))
	if tradeErr != nil {
		return fmt.Errorf("probe: trade.Run: %w", tradeErr)
	}
	r.M["trade.trades_per_call"] = float64(len(trades))

	jobTickets := fairshare.JobTickets(in.tickets, in.jobsPer)
	cands := make([]stride.Candidate, len(in.jobs))
	for i, j := range in.jobs {
		cands[i] = stride.Candidate{ID: j.ID, Gang: j.Gang, Tickets: jobTickets[j.User]}
	}
	sched := stride.New(stride.GangAware)
	r.M["stride.select_us_per_call"] = us(timeCalls(func() {
		sched.Select(cands, gpus)
	}))

	// The rescan Place is quadratic in a 100k-GPU round, so it gets the
	// round's first placeProbeReqs requests; dist-hub, the one runtime
	// that still calls it, stays under that and is probed whole.
	opt := placement.Options{AllowMigration: true}
	rescanReqs := in.requests[:min(len(in.requests), placeProbeReqs)]
	var placed placement.Result
	r.M["placement.place_ms_per_call"] = ms(timeCalls(func() {
		placed = placement.Place(in.cluster, placement.Assignment{}, rescanReqs, opt)
	}))
	t := time.Now()
	idx := placement.NewIndex(in.cluster)
	r.M["placement.index_build_ms"] = sinceMs(t)
	// Second and later calls see last call's assignment as prev, the
	// steady state the engine runs PlaceIndexed in.
	prev := placement.Assignment{}
	r.M["placement.place_indexed_ms_per_call"] = ms(timeCalls(func() {
		res := placement.PlaceIndexed(idx, prev, in.requests, opt)
		prev = res.Assignment
	}))
	if err := placement.Validate(in.cluster, placed.Assignment); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	return nil
}

// probeFaults times generating the fault schedule and sweeping it one
// quantum at a time over the horizon, as the engine does.
func (r *rep) probeFaults(sh shape, seed int64, cfg core.Config) error {
	if cfg.Faults == nil {
		r.M["faults.generate_ms"] = 0
		r.M["faults.sweep_advance_us_per_round"] = 0
		return nil
	}
	servers := cfg.Cluster.NumServers()
	t := time.Now()
	sched, err := faults.Generate(*cfg.Faults, servers, sh.horizon(), seed)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	tl := faults.Compile(sched.Outages, sched.Degradations, servers)
	sw := faults.NewSweep(tl)
	r.M["faults.generate_ms"] = sinceMs(t)

	t = time.Now()
	for i := 0; i < sh.rounds; i++ {
		sw.Advance(simclock.Time(float64(i) * quantum))
	}
	r.M["faults.sweep_advance_us_per_round"] = us(time.Since(t)) / float64(sh.rounds)
	return nil
}

// probeWire times sealing and verifying one envelope carrying plan,
// and its round trip over one loopback TCP connection.
func (r *rep) probeWire(plan comm.RoundPlan) {
	env := comm.Envelope{From: "central", Seq: 1, Msg: plan}
	var sealed comm.Envelope
	r.M["comm.seal_us_per_msg"] = us(timeCalls(func() { sealed, _ = comm.Seal(env) }))
	ok := true
	r.M["comm.verify_us_per_msg"] = us(timeCalls(func() { ok = ok && comm.Verify(sealed) }))
	if !ok {
		r.fail(1, "probe: sealed envelope failed verification")
	}
	rtt, err := tcpRoundTrips(sealed, 200)
	if err != nil {
		// No loopback in this sandbox: the probe has nothing to time.
		fmt.Fprintf(os.Stderr, "gfperf: tcp probe skipped: %v\n", err)
		r.M["comm.tcp_rtt_us_p50"] = 0
		return
	}
	r.M["comm.tcp_rtt_us_p50"] = rtt
}

// tcpRoundTrips sends env from a TCP client to a TCP server n times,
// the server answering each with a small report, and returns the
// median round trip in microseconds.
func tcpRoundTrips(env comm.Envelope, n int) (float64, error) {
	srv, err := comm.ListenTCP("central", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cli, err := comm.DialTCP("agent", srv.Addr())
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	// The server learns the client's address from its first frame.
	if err := cli.Send("central", comm.Envelope{From: "agent", Msg: comm.Register{Agent: "agent", GPUs: 4}}); err != nil {
		return 0, err
	}
	if _, ok := recvWithin(srv.Recv(), 5*time.Second); !ok {
		return 0, fmt.Errorf("tcp probe: registration not delivered")
	}
	reply := comm.Envelope{From: "agent", Msg: comm.RoundReport{Agent: "agent"}}
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := srv.Send("agent", env); err != nil {
			return 0, err
		}
		if _, ok := recvWithin(cli.Recv(), 5*time.Second); !ok {
			return 0, fmt.Errorf("tcp probe: plan not delivered")
		}
		if err := cli.Send("central", reply); err != nil {
			return 0, err
		}
		if _, ok := recvWithin(srv.Recv(), 5*time.Second); !ok {
			return 0, fmt.Errorf("tcp probe: report not delivered")
		}
		rtts = append(rtts, us(time.Since(start)))
	}
	sort.Float64s(rtts)
	return percentile(rtts, 0.5), nil
}

func recvWithin(ch <-chan comm.Envelope, d time.Duration) (comm.Envelope, bool) {
	select {
	case env, ok := <-ch:
		return env, ok
	case <-time.After(d):
		return comm.Envelope{}, false
	}
}
