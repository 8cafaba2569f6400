// Package sweep is the parallel scenario-sweep engine: it fans a grid
// of engine configurations × policies × seeds across a worker pool,
// one simulation per goroutine, and aggregates the per-seed results
// into distribution statistics (mean/p50/p99 of JCT, share error,
// utilization). Every fairness or efficiency claim in this repository
// can thereby be a swept, audited number instead of a single-seed
// anecdote.
//
// Design points:
//
//   - deterministic output: results are returned in point order
//     regardless of completion order or worker count, and each
//     simulation is itself bit-reproducible for a fixed seed;
//   - panic isolation: a panicking policy or engine bug fails its own
//     point (captured stack in RunResult.Err), never the sweep;
//   - cancellation: a cancelled context stops dispatching points;
//     already-running simulations finish, undispatched points report
//     the context error.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// PolicyFactory builds a fresh policy instance for one run. Policies
// are stateful, so every point needs its own.
type PolicyFactory func() (core.Policy, error)

// Point is one cell of a sweep grid: a full engine config, a policy,
// and a horizon.
type Point struct {
	// Label identifies the point in logs and errors, e.g.
	// "tiresias/seed=3".
	Label string

	// Group keys aggregation: points sharing a Group are summarized
	// together (typically the policy name, varying seeds within).
	// Empty defaults to Label.
	Group string

	Config  core.Config
	Policy  PolicyFactory
	Horizon simclock.Time
}

func (p Point) group() string {
	if p.Group != "" {
		return p.Group
	}
	return p.Label
}

// RunResult is one point's outcome. Exactly one of Result/Err is
// meaningful: Err is non-nil on config, policy, engine, audit, panic,
// or cancellation failure.
type RunResult struct {
	Index int // position in the input slice
	Label string
	Group string
	Seed  int64

	Result *core.Result
	Err    error
}

// Options tunes sweep execution.
type Options struct {
	// Workers is the pool size; ≤0 means runtime.GOMAXPROCS(0).
	Workers int

	// Profile attaches a fresh observer to every point whose config
	// does not already carry one, so the aggregate table can report
	// per-phase scheduler timings. Instrumentation never changes
	// simulation outcomes (see internal/obs), only adds wall-clock
	// measurement cost.
	Profile bool
}

// Run executes every point and returns results in point order. It
// never returns an error itself — per-point failures are in the
// corresponding RunResult.Err, so one bad cell cannot mask the rest of
// the grid.
func Run(ctx context.Context, points []Point, opt Options) []RunResult {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	results := make([]RunResult, len(points))
	if len(points) == 0 {
		return results
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runOne(ctx, i, points[i], opt.Profile)
			}
		}()
	}
	// Dispatch in order; on cancellation the undispatched tail is
	// marked with the context error (indices never sent are written
	// only here, so there is no data race with the workers).
	for i := range points {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < len(points); j++ {
				p := points[j]
				results[j] = RunResult{
					Index: j, Label: p.Label, Group: p.group(),
					Seed: p.Config.Seed, Err: ctx.Err(),
				}
			}
			close(jobs)
			wg.Wait()
			return results
		}
	}
	close(jobs)
	wg.Wait()
	return results
}

// runOne executes a single point with panic capture.
func runOne(ctx context.Context, i int, p Point, profile bool) (rr RunResult) {
	rr = RunResult{Index: i, Label: p.Label, Group: p.group(), Seed: p.Config.Seed}
	defer func() {
		if r := recover(); r != nil {
			rr.Result = nil
			rr.Err = fmt.Errorf("sweep: point %q panicked: %v\n%s", p.Label, r, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		rr.Err = err
		return rr
	}
	if p.Policy == nil {
		rr.Err = fmt.Errorf("sweep: point %q has no policy factory", p.Label)
		return rr
	}
	policy, err := p.Policy()
	if err != nil {
		rr.Err = fmt.Errorf("sweep: point %q: %w", p.Label, err)
		return rr
	}
	if profile && p.Config.Obs == nil {
		p.Config.Obs = obs.New() // per-run: observers are cheap and unshared
	}
	sim, err := core.New(p.Config, policy)
	if err != nil {
		rr.Err = fmt.Errorf("sweep: point %q: %w", p.Label, err)
		return rr
	}
	res, err := sim.Run(p.Horizon)
	if err != nil {
		rr.Err = fmt.Errorf("sweep: point %q: %w", p.Label, err)
		return rr
	}
	rr.Result = res
	return rr
}
