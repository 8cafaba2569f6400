package main

import (
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fairshare"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/workload"
)

const centralName = "central"

func agentName(i int) string { return fmt.Sprintf("agent-%03d", i) }

// sendRec is one Transport.Send as the decorator saw it.
type sendRec struct {
	dur   time.Duration
	bytes int
	plan  bool // RoundPlan (else RoundReport or control traffic)
	rep   bool // RoundReport
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// gobSize is the envelope's size under a fresh gob encoder, type
// preamble included: what comm.Checksum hashes and an upper bound on
// what a long-lived TCP connection sends.
func gobSize(env comm.Envelope) int {
	var w countingWriter
	if err := gob.NewEncoder(&w).Encode(&env); err != nil {
		return 0
	}
	return w.n
}

// tracedTransport decorates one endpoint: it times and sizes every
// Send and, through the hooks, lets the endpoint's owner turn the
// traffic into spans. Each endpoint is driven by one goroutine, so the
// records need no lock.
type tracedTransport struct {
	comm.Transport
	sends []sendRec
	// onSend runs before a Send is handed down, onRecvCall when the
	// owner asks for the inbox; either may be nil.
	onSend     func(env comm.Envelope)
	onRecvCall func()
	inbox      <-chan comm.Envelope // replaces the inner inbox when non-nil
}

func (t *tracedTransport) Send(to string, env comm.Envelope) error {
	if t.onSend != nil {
		t.onSend(env)
	}
	_, isPlan := env.Msg.(comm.RoundPlan)
	_, isRep := env.Msg.(comm.RoundReport)
	start := time.Now()
	err := t.Transport.Send(to, env)
	t.sends = append(t.sends, sendRec{dur: time.Since(start), bytes: gobSize(env), plan: isPlan, rep: isRep})
	return err
}

func (t *tracedTransport) Recv() <-chan comm.Envelope {
	if t.onRecvCall != nil {
		t.onRecvCall()
	}
	if t.inbox != nil {
		return t.inbox
	}
	return t.Transport.Recv()
}

// centralSpans turns the central's traffic into two spans a round,
// children of the round span the policy decorator opened: dispatch
// from the first plan sent to the first look at the inbox after it,
// collect from there to the policy's Executed (waiting for the reports
// and applying them).
type centralSpans struct {
	tr       *span.Tracer
	dispatch span.ID
	collect  span.ID
	mid      comm.RoundPlan // a mid-run plan, for the wire probes
	plans    int
	midAt    int
}

func (c *centralSpans) onSend(env comm.Envelope) {
	plan, ok := env.Msg.(comm.RoundPlan)
	if !ok {
		return
	}
	if c.dispatch == 0 && c.collect == 0 {
		c.dispatch = c.tr.Start(spanDispatch)
	}
	c.plans++
	if c.plans == 1 || c.plans == c.midAt {
		c.mid = plan
	}
}

func (c *centralSpans) onRecvCall() {
	if c.dispatch != 0 {
		c.tr.End(c.dispatch)
		c.dispatch = 0
		c.collect = c.tr.Start(spanCollect)
	}
}

// beforeExecuted is the policy decorator's hook: the reports are in.
func (c *centralSpans) beforeExecuted() {
	if c.collect != 0 {
		c.tr.End(c.collect)
		c.collect = 0
	}
}

// agentSpans records one agent's execution of each plan as a span
// under the central's round: from the plan reaching the agent's loop
// to the agent handing its report to the transport (verify, dedup,
// execute, seal).
type agentSpans struct {
	central *span.Tracer
	tr      *span.Tracer
	open    span.ID
}

func (a *agentSpans) planArrived(plan comm.RoundPlan) {
	a.open = a.tr.BeginRemote(a.central.Trace(), plan.Round, 0, spanAgent, a.central.Root())
}

func (a *agentSpans) onSend(env comm.Envelope) {
	if _, ok := env.Msg.(comm.RoundReport); ok && a.open != 0 {
		a.tr.End(a.open)
		a.open = 0
	}
}

// forward hands the inner inbox to the agent one envelope at a time
// through an unbuffered channel, opening the agent's span as each plan
// passes.
func (a *agentSpans) forward(in <-chan comm.Envelope, out chan<- comm.Envelope) {
	defer close(out)
	for env := range in {
		// Stamp before the hand-off: the agent is idle whenever a plan
		// arrives (closed loop), so it takes the envelope at once, and
		// the channel send orders this write before the agent's reads.
		if plan, ok := env.Msg.(comm.RoundPlan); ok {
			a.planArrived(plan)
		}
		out <- env
	}
}

// distRun owns the in-process deployment: hub, central, agents.
type distRun struct {
	central   *distrib.Central
	endpoints []comm.Transport
	wg        sync.WaitGroup
	agentErrs chan error

	// Traced mode only.
	cspans   *centralSpans
	ctr      *tracedTransport
	agentTrs []*tracedTransport
	aspans   []*agentSpans
}

// startDist attaches the central and sh.agents agents to a hub, starts
// the agents and waits for them to register.
func startDist(sh shape, specs []job.Spec, policy core.Policy, o *obs.Observer, traced *tracedPolicy, tracer *span.Tracer) (*distRun, error) {
	d := &distRun{agentErrs: make(chan error, sh.agents)}
	fail := func(err error) (*distRun, error) {
		d.stop()
		return nil, err
	}
	hub := comm.NewHub()
	ctr, err := hub.Attach(centralName)
	if err != nil {
		return nil, err
	}
	d.endpoints = append(d.endpoints, ctr)
	if traced != nil {
		d.cspans = &centralSpans{tr: tracer, midAt: sh.agents * sh.rounds / 2}
		traced.beforeExecuted = d.cspans.beforeExecuted
		d.ctr = &tracedTransport{Transport: ctr, onSend: d.cspans.onSend, onRecvCall: d.cspans.onRecvCall}
		ctr = d.ctr
	}
	for i := 0; i < sh.agents; i++ {
		tr, err := hub.Attach(agentName(i))
		if err != nil {
			return fail(err)
		}
		d.endpoints = append(d.endpoints, tr)
		if traced != nil {
			as := &agentSpans{central: tracer, tr: span.New(agentName(i), 2*sh.rounds+16)}
			inner, inbox := tr.Recv(), make(chan comm.Envelope)
			tt := &tracedTransport{Transport: tr, onSend: as.onSend, inbox: inbox}
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				as.forward(inner, inbox)
			}()
			d.aspans = append(d.aspans, as)
			d.agentTrs = append(d.agentTrs, tt)
			tr = tt
		}
		a, err := distrib.NewAgent(tr, centralName, gens3[i%len(gens3)], 4)
		if err != nil {
			return fail(err)
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := a.Run(); err != nil {
				d.agentErrs <- err
			}
		}()
	}
	d.central, err = distrib.NewCentral(ctr, policy, distrib.CentralConfig{
		Specs: specs, Quantum: quantum, Obs: o,
	})
	if err == nil {
		err = d.central.WaitForAgents(sh.agents, 30*time.Second)
	}
	if err != nil {
		return fail(err)
	}
	return d, nil
}

// stop closes every endpoint, which ends agents and forwarders that
// have not exited yet, and waits for all of them.
func (d *distRun) stop() {
	for _, ep := range d.endpoints {
		_ = ep.Close()
	}
	d.wg.Wait()
}

// runDist is one rep of dist-hub.
func runDist(sh shape, seed int64, mode, outDir string) (*rep, error) {
	r := &rep{Workload: sh.name, Mode: mode, Seed: seed, M: make(map[string]float64)}

	var (
		specs []job.Spec
		ins   instruments
		o     *obs.Observer
		d     *distRun
	)
	setup, err := medianSetup(func() error {
		t := time.Now()
		zoo := workload.DefaultZoo()
		var err error
		specs, err = workload.Generate(zoo, workload.Config{
			Seed: seed, Users: sh.userSpecs(zoo), MaxK80Hours: sh.maxK80Hours,
		})
		if err != nil {
			return err
		}
		r.M["workload.generate_ms"] = sinceMs(t)
		inner, err := fairPolicy()
		if err != nil {
			return err
		}
		ins = instrument(inner, mode, "gfperf", sh.rounds, spanCap(sh.rounds, len(specs))+(2+sh.agents)*sh.rounds)
		if mode == modeObs {
			o = obs.New()
			o.SetTracer(span.New(centralName, 0))
		}
		t = time.Now()
		d, err = startDist(sh, specs, ins.policy, o, ins.traced, ins.tracer)
		r.M["core.new_ms"] = sinceMs(t) // NewCentral + agent registration
		return err
	}, func() { d.stop() })
	if err != nil {
		return nil, err
	}
	traced, tracer := ins.traced, ins.tracer
	var sum *distrib.Summary
	var runErr error
	m := measure(func() { sum, runErr = d.central.Run(sh.rounds) })
	if traced != nil {
		traced.finish()
	}
	d.stop()
	close(d.agentErrs)
	for err := range d.agentErrs {
		r.fail(1, "agent: %v", err)
	}
	if runErr != nil {
		r.Attempted = sh.rounds
		r.fail(1, "run: %v", runErr)
		r.endToEndValues(setup, m, 0, 0, nil)
		return r, nil
	}

	r.Attempted = sum.Rounds
	if sum.MissedReports > 0 {
		r.fail(sum.MissedReports, "%d agent reports missed", sum.MissedReports)
	}
	if got := len(sum.Finished) + sum.Unfinished; got != len(specs) {
		r.fail(abs(got-len(specs)), "finished %d + unfinished %d != generated %d",
			len(sum.Finished), sum.Unfinished, len(specs))
	}
	t := time.Now()
	r.Digest = distrib.UsageDigest(sum)
	r.M["core.digest_ms"] = sinceMs(t)

	r.endToEndValues(setup, m, sum.VirtualSeconds/3600, sum.Rounds, ins.gaps())
	// Every user is backlogged throughout, so tickets (all 1) are the
	// fair reference and capacity × time the utilisation base.
	users := job.SortedUsers(sum.UsageByUser)
	r.M["share_err_max"] = fairshare.MaxShareError(metrics.ShareFractions(sum.UsageByUser),
		fairshare.FairFractions(fairshare.EqualTickets(users...), users))
	var used float64
	for _, u := range users {
		used += sum.UsageByUser[u]
	}
	r.M["gpu_util"] = used / (float64(4*sh.agents) * sum.VirtualSeconds)
	r.M["distrib.missed_reports"] = float64(sum.MissedReports)
	r.zero(simOnlyNames...)
	r.zero(sweepNames...)

	switch mode {
	case modeTraced:
		for _, as := range d.aspans {
			tracer.Inject(as.tr.Spans())
		}
		spans := tracer.Spans()
		if dropped := tracer.Dropped(); dropped > 0 {
			r.fail(1, "span ring dropped %d spans", dropped)
		}
		st := analyzeSpans(spans)
		r.spanValues(st, traced.counts)
		r.wireValues(st, d, sum.Rounds)
		if err := r.probePolicyLayers(traced.probe); err != nil {
			return nil, err
		}
		r.probeWire(d.cspans.mid)
		if err := writeTrace(outDir, sh.name, spans); err != nil {
			return nil, err
		}
	case modeObs:
		r.phaseValues(o.PhaseTotals(), sum.Rounds, m.wall)
	}
	return r, nil
}

// wireValues reports the transport decorators' records and the
// central's and agents' spans.
func (r *rep) wireValues(st spanStats, d *distRun, rounds int) {
	n := math.Max(1, float64(rounds))
	var sendsUs []float64
	var total, plans, planBytes, reps, repBytes int
	for _, tt := range append([]*tracedTransport{d.ctr}, d.agentTrs...) {
		for _, s := range tt.sends {
			sendsUs = append(sendsUs, us(s.dur))
			total += s.bytes
			if s.plan {
				plans++
				planBytes += s.bytes
			}
			if s.rep {
				reps++
				repBytes += s.bytes
			}
		}
	}
	sort.Float64s(sendsUs)
	r.M["comm.sends_per_round"] = float64(len(sendsUs)) / n
	r.M["comm.bytes_per_round"] = float64(total) / n
	r.M["comm.plan_bytes_mean"] = float64(planBytes) / math.Max(1, float64(plans))
	r.M["comm.report_bytes_mean"] = float64(repBytes) / math.Max(1, float64(reps))
	r.M["comm.send_us_p50"] = percentile(sendsUs, 0.5)
	r.M["comm.send_us_p95"] = percentile(sendsUs, 0.95)

	r.M["distrib.dispatch_ms_per_round"] = sum(st.byName[spanDispatch]) / n
	r.M["distrib.collect_wait_ms_per_round"] = sum(st.byName[spanCollect]) / n
	// The round's self time already excludes policy, dispatch and
	// collect children: what is left is the central's own work.
	r.M["distrib.central_self_ms_per_round"] = mean(st.selfMs)
	exec := sortedCopy(st.byName[spanAgent])
	r.M["distrib.agent_exec_us_p50"] = 1e3 * percentile(exec, 0.5)
	r.M["distrib.agent_exec_us_p95"] = 1e3 * percentile(exec, 0.95)
}
