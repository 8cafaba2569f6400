// Package gandivafair is a faithful, simulation-backed implementation
// of Gandiva_fair (EuroSys 2020): a distributed fair-share scheduler
// for deep-learning training on heterogeneous GPU clusters that
// balances efficiency (work conservation, migration, packing) with
// per-user fairness (gang-aware stride scheduling over ticket
// entitlements) and exploits GPU heterogeneity through automatic,
// Pareto-improving resource trading.
//
// This root package is the public API: it re-exports the pieces a
// downstream user composes — cluster inventory, model zoo, workload
// generation, the Gandiva_fair policy and the baselines, the
// simulation engine, and the distributed (central + agents) runtime.
// The examples/ directory uses nothing but this surface.
//
// Quick start:
//
//	cluster := gandivafair.Default200Cluster()
//	zoo := gandivafair.DefaultZoo()
//	specs := gandivafair.BatchJobs("alice", zoo.MustGet("resnet50"), 4, 2, 2.0)
//	specs, _ = gandivafair.AssignIDs(specs)
//	res, err := gandivafair.Simulate(gandivafair.Config{
//		Cluster: cluster, Specs: specs,
//	}, gandivafair.NewScheduler(gandivafair.SchedulerConfig{EnableTrading: true}), 24*gandivafair.Hour)
package gandivafair

import (
	"context"
	"io"

	"repro/internal/baselines"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/sweep"
	"repro/internal/trade"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Hardware inventory

// Re-exported inventory types. A Cluster is immutable after
// construction; build one with NewCluster or Default200Cluster.
type (
	Cluster    = gpu.Cluster
	ServerSpec = gpu.Spec
	Generation = gpu.Generation
)

// GPU generations, oldest to newest.
const (
	K80  = gpu.K80
	P40  = gpu.P40
	P100 = gpu.P100
	V100 = gpu.V100
)

// NewCluster builds a cluster from server specs.
func NewCluster(specs ...ServerSpec) (*Cluster, error) { return gpu.New(specs...) }

// Default200Cluster returns the paper-shaped 200-GPU heterogeneous
// testbed (48 K80 + 48 P40 + 56 P100 + 48 V100 over 50 servers).
func Default200Cluster() *Cluster { return gpu.Default200() }

// ---------------------------------------------------------------------------
// Jobs and workloads

// Re-exported job and workload types.
type (
	JobID      = job.ID
	UserID     = job.UserID
	JobSpec    = job.Spec
	Job        = job.Job
	Perf       = job.Perf
	Zoo        = workload.Zoo
	UserSpec   = workload.UserSpec
	TraceCfg   = workload.Config
	GangWeight = workload.GangWeight
)

// Time aliases: virtual time is float64 seconds.
type (
	Time     = simclock.Time
	Duration = simclock.Duration
)

// Duration units in seconds.
const (
	Second = simclock.Second
	Minute = simclock.Minute
	Hour   = simclock.Hour
	Day    = simclock.Day
)

// DefaultZoo returns the 12-model catalog with Table-1-shaped
// per-generation speedups.
func DefaultZoo() *Zoo { return workload.DefaultZoo() }

// NewZoo builds a custom model catalog.
func NewZoo(profiles ...*Perf) (*Zoo, error) { return workload.NewZoo(profiles...) }

// GenerateTrace produces a deterministic multi-user job trace with
// Philly-shaped distributions.
func GenerateTrace(z *Zoo, cfg TraceCfg) ([]JobSpec, error) { return workload.Generate(z, cfg) }

// BatchJobs builds n identical jobs for one user, each sized to run
// standalone for k80Hours on K80s.
func BatchJobs(user UserID, perf *Perf, n, gang int, k80Hours float64) []JobSpec {
	return workload.BatchJobs(user, perf, n, gang, k80Hours)
}

// AssignIDs renumbers specs 1..n and validates them.
func AssignIDs(specs []JobSpec) ([]JobSpec, error) { return workload.AssignIDs(specs) }

// PhillyGangDist returns the default gang-size distribution.
func PhillyGangDist() []GangWeight { return workload.PhillyGangDist() }

// WriteTraceCSV serializes a job trace; ReadTraceCSV parses one back
// (model profiles are referenced by zoo name).
func WriteTraceCSV(w io.Writer, specs []JobSpec) error { return workload.WriteCSV(w, specs) }

// ReadTraceCSV parses a trace written by WriteTraceCSV.
func ReadTraceCSV(r io.Reader, z *Zoo) ([]JobSpec, error) { return workload.ReadCSV(r, z) }

// ---------------------------------------------------------------------------
// Scheduling policies

// Re-exported policy and engine types.
type (
	Policy          = core.Policy
	SchedulerConfig = core.FairConfig
	Scheduler       = core.FairPolicy
	Config          = core.Config
	Result          = core.Result
	RoundState      = core.RoundState
	Decision        = core.Decision
	TradeConfig     = trade.Config
	PricePolicy     = trade.PricePolicy
)

// Trade price policies.
const (
	PriceGeometric    = trade.Geometric
	PriceMidpoint     = trade.Midpoint
	PriceSellerFloor  = trade.SellerFloor
	PriceBuyerCeiling = trade.BuyerCeiling
)

// Hierarchical fairness (org → user two-level tickets).
type (
	Hierarchy = fairshare.Hierarchy
	Org       = fairshare.Org
)

// NewHierarchy builds an org → user ticket hierarchy for
// SchedulerConfig.Hierarchy.
func NewHierarchy(orgs map[string]*Org) (*Hierarchy, error) { return fairshare.NewHierarchy(orgs) }

// NewScheduler constructs the Gandiva_fair policy.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) { return core.NewFairPolicy(cfg) }

// MustNewScheduler is NewScheduler but panics on bad config.
func MustNewScheduler(cfg SchedulerConfig) *Scheduler { return core.MustNewFairPolicy(cfg) }

// Baseline schedulers the paper compares against.
func NewTiresias() Policy                  { return baselines.NewTiresias() }
func NewGandivaRR() Policy                 { return baselines.NewGandivaRR() }
func NewStaticQuota(users []UserID) Policy { return baselines.NewStaticQuota(users) }
func NewFIFO() Policy                      { return baselines.NewFIFO() }

// Timeline is the windowed share-over-time accumulator carried in
// Result.Timeline.
type Timeline = metrics.Timeline

// RenderTimeline writes a Result's share timeline as stacked ASCII
// bars (one letter per user, '·' for idle capacity).
func RenderTimeline(w io.Writer, tl *Timeline, users []UserID, width, capacityGPUs int) error {
	return metrics.RenderTimeline(w, tl, users, width, capacityGPUs)
}

// Simulate runs a policy over a config until the horizon (or all
// jobs finish) and returns the result.
func Simulate(cfg Config, p Policy, until Time) (*Result, error) {
	sim, err := core.New(cfg, p)
	if err != nil {
		return nil, err
	}
	return sim.Run(until)
}

// ---------------------------------------------------------------------------
// Invariant auditing and parallel sweeps

// Re-exported audit types. Every simulation carries an auditor that
// checks runtime invariants (capacity, gang integrity, no double
// placement, no placement on down servers, ticket sanity, GPU-second
// conservation) each round. AuditMode selects how violations are
// handled; the zero value is AuditStrict.
type (
	AuditMode      = core.AuditMode
	AuditReport    = core.AuditReport
	AuditViolation = core.AuditViolation
)

// Audit modes: strict fails the run on the first violation (the
// default, used by the whole test suite), count records violations in
// Result.Audit without failing, off disables checking.
const (
	AuditStrict = core.AuditStrict
	AuditCount  = core.AuditCount
	AuditOff    = core.AuditOff
)

// ParseAuditMode parses "strict", "count", or "off".
func ParseAuditMode(s string) (AuditMode, error) { return core.ParseAuditMode(s) }

// Re-exported sweep types: a Point is one config × policy × horizon
// cell; Sweep fans points across a worker pool and returns results in
// point order; SweepSummary aggregates per-group distributions.
type (
	SweepPoint    = sweep.Point
	SweepOptions  = sweep.Options
	SweepResult   = sweep.RunResult
	SweepSummary  = sweep.Summary
	SweepGrid     = sweep.Grid
	PolicyFactory = sweep.PolicyFactory
)

// Sweep runs every point on a worker pool (Workers ≤ 0 means
// GOMAXPROCS) and returns per-point results in input order; per-point
// failures land in SweepResult.Err, never an error return.
func Sweep(ctx context.Context, points []SweepPoint, opt SweepOptions) []SweepResult {
	return sweep.Run(ctx, points, opt)
}

// SummarizeSweep aggregates sweep results into per-group
// mean/p50/p99 distributions of JCT, share error and utilization.
func SummarizeSweep(results []SweepResult) *SweepSummary { return sweep.Summarize(results) }

// LoadSweepGrid parses the JSON grid format consumed by cmd/gfsweep
// (a scenario crossed with policy and seed lists).
func LoadSweepGrid(r io.Reader) (*SweepGrid, error) { return sweep.LoadGrid(r) }

// ---------------------------------------------------------------------------
// Distributed runtime

// Re-exported distributed-mode types: a central scheduler plus one
// agent per server, connected by an in-memory hub or TCP.
type (
	Transport     = comm.Transport
	Hub           = comm.Hub
	Agent         = distrib.Agent
	Central       = distrib.Central
	CentralConfig = distrib.CentralConfig
	RunSummary    = distrib.Summary
)

// NewHub creates an in-process transport fabric.
func NewHub() *Hub { return comm.NewHub() }

// ListenTCP starts the central scheduler's TCP endpoint.
func ListenTCP(name, addr string) (*comm.TCPServer, error) { return comm.ListenTCP(name, addr) }

// DialTCP connects an agent to a central scheduler over TCP.
func DialTCP(name, addr string) (*comm.TCPClient, error) { return comm.DialTCP(name, addr) }

// NewAgent wires an agent for one server.
func NewAgent(tr Transport, central string, gen Generation, gpus int) (*Agent, error) {
	return distrib.NewAgent(tr, central, gen, gpus)
}

// NewCentral builds the distributed coordinator around any Policy.
func NewCentral(tr Transport, p Policy, cfg CentralConfig) (*Central, error) {
	return distrib.NewCentral(tr, p, cfg)
}
