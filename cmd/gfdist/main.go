// Command gfdist runs the distributed Gandiva_fair deployment: one
// process as the central scheduler, one process per GPU server as an
// agent, speaking the Register/RoundPlan/RoundReport protocol over
// TCP.
//
// Start the central scheduler (it waits for agents, then schedules):
//
//	gfdist central -listen 127.0.0.1:7070 -agents 4 -users 4 -jobs 20
//
// Start one agent per server (in other terminals or on other hosts):
//
//	gfdist agent -connect 127.0.0.1:7070 -name agent-0 -gen V100 -gpus 4
//
// The agents exit when the central scheduler finishes and sends
// Shutdown. With -rejoin N an agent survives a central restart: when
// its connection drops before Shutdown it re-dials and re-registers
// up to N times.
//
// The central can persist its state each round with -snapshot-dir and
// resume from the latest snapshot with -restore; after a restore it
// waits for the known agents to re-register instead of admitting a
// fresh workload.
//
// The central speaks the partition-tolerant protocol:
// -lease-rounds N lets cut-off agents keep executing in degraded mode
// for N rounds (their buffered reports reconcile on heal; 0, the
// default, is a lease of zero rounds), and
// -collect-deadline D is the straggler cutoff — the round proceeds
// without agents that miss it and their late reports are charged
// idempotently.
//
// The chaos subcommand runs the fault-injection harness in-process
// (in-memory transport): an undisturbed baseline and a faulted run
// with agent kill/rejoin, dropped central sends (from round 1 on, so
// registration acks always arrive), and a central snapshot/restore,
// exiting nonzero if per-user usage diverges:
//
//	gfdist chaos -seed 42 -kill-at 1 -snapshot-at 2 -snapshot-dir /tmp/snap
//
// With -netchaos it instead runs the deterministic network fault
// matrix (duplication, reordering, corruption, drops, delays, one-way
// and full partitions, plus a central crash+restore mid-partition)
// and prints the per-user usage digests, which must be identical:
//
//	gfdist chaos -netchaos -seed 911
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "central":
		runCentral(os.Args[2:])
	case "agent":
		runAgent(os.Args[2:])
	case "chaos":
		runChaos(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gfdist central -listen ADDR -agents N [-users N -jobs N -hours H -no-trading] [-http ADDR]
                 [-pprof] [-flight FILE -flight-rounds N] [-spans-out FILE]
                 [-snapshot-dir DIR -snapshot-every N] [-restore]
                 [-lease-rounds N] [-collect-deadline D]
  gfdist agent   -connect ADDR -name NAME -gen GEN -gpus N [-rejoin N]
  gfdist chaos   [-seed N -kill-at R -restart-after R -snapshot-at R -snapshot-dir DIR
                 -drop-prob P -max-drops N] [-netchaos]`)
	os.Exit(2)
}

func runCentral(args []string) {
	fs := flag.NewFlagSet("central", flag.ExitOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:7070", "address to listen on")
		agents    = fs.Int("agents", 2, "number of agents to wait for")
		users     = fs.Int("users", 4, "number of users")
		jobs      = fs.Int("jobs", 20, "jobs per user")
		meanHours = fs.Float64("mean-hours", 1, "mean standalone K80 runtime per job")
		rounds    = fs.Int("rounds", 500, "maximum scheduling rounds")
		quantum   = fs.Float64("quantum", 360, "virtual seconds of training per round")
		seed      = fs.Int64("seed", 1, "deterministic workload seed")
		noTrading = fs.Bool("no-trading", false, "disable resource trading")
		waitSecs  = fs.Int("wait", 60, "seconds to wait for agent registration")
		httpAddr  = fs.String("http", "", "serve /metrics, /healthz, /debug/sched on this address (e.g. :9090)")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -http address")
		flightOut = fs.String("flight", "", "arm the flight recorder; dumps the last rounds to this file on SIGUSR1, /debug/flight?save=1 or a failed round")
		flightN   = fs.Int("flight-rounds", 0, "flight recorder window in rounds (0 = default 64)")
		spansOut  = fs.String("spans-out", "", "write the final rounds' spans (central + agents) as Chrome trace_event JSON for Perfetto")
		spansCap  = fs.Int("spans-cap", 0, "span ring capacity (0 = default 8192)")
		snapDir   = fs.String("snapshot-dir", "", "persist scheduler state to this directory after rounds")
		snapEvery = fs.Int("snapshot-every", 1, "snapshot every N rounds (with -snapshot-dir)")
		restore   = fs.Bool("restore", false, "resume from the snapshot in -snapshot-dir instead of a fresh workload")
		leaseR    = fs.Int("lease-rounds", 0, "degraded-mode lease in rounds: cut-off agents keep executing and buffer reports for this long before parking (0 = a lease of zero rounds: nothing late is reconciled)")
		collectD  = fs.Duration("collect-deadline", 0, "straggler cutoff: proceed without agents that have not reported by this wall deadline (0 = 5s)")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if *restore && *snapDir == "" {
		fatal(fmt.Errorf("-restore needs -snapshot-dir"))
	}

	// The introspection server starts before agents register so
	// operators (and the CI smoke test) can scrape from the first
	// moment; phase histogram series exist from construction.
	var observer *obs.Observer
	var tracer *span.Tracer
	var rec *flight.Recorder
	if *httpAddr != "" || *spansOut != "" || *flightOut != "" {
		observer = obs.New()
		if *spansOut != "" || *flightOut != "" {
			tracer = span.New("central", *spansCap)
			observer.SetTracer(tracer)
		}
		if *flightOut != "" {
			rec = flight.New(*flightN, *flightOut)
			observer.SetSink(rec)
			rec.DumpOnSignal(func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			})
		}
		if *httpAddr != "" {
			opt := obs.MuxOptions{PProf: *pprofOn}
			if rec != nil {
				opt.Flight = rec
			}
			_, bound, err := obs.Serve(*httpAddr, observer, opt)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "observability on http://%s (/metrics /healthz /debug/sched)\n", bound)
		}
	}

	srv, err := comm.ListenTCP("central", *listen)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Printf("central scheduler listening on %s, waiting for %d agents...\n", srv.Addr(), *agents)

	policy, err := core.NewFairPolicy(core.FairConfig{EnableTrading: !*noTrading})
	if err != nil {
		fatal(err)
	}
	ccfg := distrib.CentralConfig{
		Quantum:       *quantum,
		Obs:           observer,
		SnapshotDir:   *snapDir,
		SnapshotEvery: *snapEvery,
		LeaseRounds:   *leaseR,
		ReportTimeout: *collectD,
		Flight:        rec,
	}
	wait := time.Duration(*waitSecs) * time.Second

	var central *distrib.Central
	if *restore {
		st, err := distrib.LoadSnapshot(*snapDir)
		if err != nil {
			fatal(err)
		}
		central, err = distrib.RestoreCentral(srv, policy, ccfg, st)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("restored snapshot from round %d; waiting for %d agents to rejoin...\n",
			st.Engine.Rounds, *agents)
		if err := central.WaitForRejoin(*agents, wait); err != nil {
			fatal(err)
		}
		fmt.Printf("%d agents rejoined; resuming schedule...\n", *agents)
	} else {
		zoo := workload.DefaultZoo()
		names := zoo.Names()
		var userSpecs []workload.UserSpec
		for i := 0; i < *users; i++ {
			userSpecs = append(userSpecs, workload.UserSpec{
				User:    job.UserID(fmt.Sprintf("user%02d", i+1)),
				NumJobs: *jobs, MeanK80Hours: *meanHours,
				Models: []string{names[i%len(names)], names[(i+5)%len(names)]},
				// Demo deployments are small; keep gangs modest so every
				// job fits a single server generation.
				GangDist: []workload.GangWeight{
					{Gang: 1, Weight: 0.7}, {Gang: 2, Weight: 0.2}, {Gang: 4, Weight: 0.1},
				},
			})
		}
		specs, err := workload.Generate(zoo, workload.Config{Seed: *seed, Users: userSpecs})
		if err != nil {
			fatal(err)
		}
		ccfg.Specs = specs
		central, err = distrib.NewCentral(srv, policy, ccfg)
		if err != nil {
			fatal(err)
		}
		if err := central.WaitForAgents(*agents, wait); err != nil {
			fatal(err)
		}
		fmt.Printf("%d agents registered; scheduling %d jobs...\n", *agents, len(specs))
	}

	sum, err := central.Run(*rounds)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nran %d rounds (%.1f virtual hours)\n", sum.Rounds, sum.VirtualSeconds/3600)
	fmt.Printf("finished %d jobs, %d unfinished, %d missed agent reports\n",
		len(sum.Finished), sum.Unfinished, sum.MissedReports)
	var us []job.UserID
	for u := range sum.UsageByUser {
		us = append(us, u)
	}
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
	for _, u := range us {
		fmt.Printf("  %-8s %8.1f GPU-hours\n", u, sum.UsageByUser[u]/3600)
	}
	if tracer != nil && *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			fatal(err)
		}
		err = tracer.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "spans (%d retained, %d dropped) written to %s\n",
			len(tracer.Spans()), tracer.Dropped(), *spansOut)
	}
}

func runAgent(args []string) {
	fs := flag.NewFlagSet("agent", flag.ExitOnError)
	var (
		connect = fs.String("connect", "127.0.0.1:7070", "central scheduler address")
		name    = fs.String("name", "", "unique agent name (required)")
		genStr  = fs.String("gen", "V100", "GPU generation of this server")
		gpus    = fs.Int("gpus", 4, "GPUs on this server")
		rejoins = fs.Int("rejoin", 0, "re-dial and re-register up to N times if the central goes away")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if *name == "" {
		fatal(fmt.Errorf("agent needs -name"))
	}
	gen, err := gpu.ParseGeneration(*genStr)
	if err != nil {
		fatal(err)
	}
	for attempt := 0; ; attempt++ {
		err := serveOnce(*name, *connect, gen, *gpus)
		if err == nil {
			fmt.Println("shut down by central scheduler")
			return
		}
		// Only a dropped transport is worth a rejoin; protocol errors
		// (rejected registration, bad plan) are fatal either way.
		if !errors.Is(err, distrib.ErrTransportClosed) || attempt >= *rejoins {
			fatal(err)
		}
		delay := time.Duration(1<<uint(min(attempt, 4))) * time.Second
		fmt.Fprintf(os.Stderr, "gfdist: central unreachable (%v); rejoining in %v (attempt %d/%d)\n",
			err, delay, attempt+1, *rejoins)
		time.Sleep(delay)
	}
}

// serveOnce dials the central, registers, and serves rounds until
// Shutdown or transport loss.
func serveOnce(name, connect string, gen gpu.Generation, gpus int) error {
	cli, err := comm.DialTCP(name, connect)
	if err != nil {
		// A refused dial during a central restart behaves like a
		// dropped transport: eligible for rejoin.
		return fmt.Errorf("%w: %v", distrib.ErrTransportClosed, err)
	}
	defer cli.Close()
	agent, err := distrib.NewAgent(cli, "central", gen, gpus)
	if err != nil {
		return err
	}
	fmt.Printf("agent %s (%d× %v) serving %s\n", name, gpus, gen, connect)
	return agent.Run()
}

func runChaos(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var (
		seed         = fs.Int64("seed", 42, "deterministic fault-script seed")
		killAt       = fs.Int("kill-at", 1, "kill a busy agent after this round (0 = never)")
		restartAfter = fs.Int("restart-after", 2, "rounds between kill and restart")
		snapAt       = fs.Int("snapshot-at", 0, "crash+restore the central after this round (0 = never)")
		snapDir      = fs.String("snapshot-dir", "", "snapshot directory (required with -snapshot-at)")
		dropProb     = fs.Float64("drop-prob", 0.3, "probability the central's sends from round 1 on are dropped (0 = none)")
		maxDrops     = fs.Int("max-drops", 2, "cap on dropped sends (0 = no cap)")
		netMatrix    = fs.Bool("netchaos", false, "run the deterministic network fault matrix (dup, reorder, corrupt, drop, delay, one-way and full partitions, central crash+restore) instead of the legacy script")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}

	var cfg distrib.ChaosConfig
	if *netMatrix {
		dir := *snapDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "gfdist-netchaos-*")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		cfg = distrib.NetChaosConfig(*seed, dir)
	} else {
		cfg = distrib.ChaosConfig{
			Seed:               *seed,
			KillAtRound:        *killAt,
			RestartAfterRounds: *restartAfter,
			SnapshotAtRound:    *snapAt,
			SnapshotDir:        *snapDir,
		}
		if *dropProb > 0 {
			cfg.Net = &netchaos.Config{Seed: *seed, Faults: []netchaos.Fault{{
				Kind: netchaos.Drop, From: "central", To: "*",
				Rounds: faults.RoundInterval{From: 1, To: math.MaxInt},
				Prob:   *dropProb, Max: *maxDrops,
			}}}
		}
	}
	sum, err := distrib.RunChaos(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("chaos run survived: %d baseline rounds, %d faulted rounds, %d central sends dropped\n",
		sum.Baseline.Rounds, sum.Faulted.Rounds, sum.NetStats[netchaos.Drop])
	for _, e := range sum.Events {
		fmt.Println("  fault:", e)
	}
	if len(sum.NetStats) > 0 {
		var kinds []string
		for k := range sum.NetStats {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		fmt.Print("network faults fired:")
		for _, k := range kinds {
			fmt.Printf(" %s=%d", k, sum.NetStats[netchaos.Kind(k)])
		}
		fmt.Println()
	}
	baseDigest, faultDigest := sum.Digests()
	fmt.Printf("usage digest: baseline %s\n              faulted  %s\n", baseDigest, faultDigest)
	var us []job.UserID
	for u := range sum.Baseline.UsageByUser {
		us = append(us, u)
	}
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
	fmt.Println("per-user occupied GPU-seconds (baseline == faulted):")
	for _, u := range us {
		fmt.Printf("  %-8s %10.1f == %10.1f\n", u, sum.Baseline.UsageByUser[u], sum.Faulted.UsageByUser[u])
	}
	if !sum.UsageIdentical() {
		fatal(fmt.Errorf("usage diverged"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gfdist:", err)
	os.Exit(1)
}
