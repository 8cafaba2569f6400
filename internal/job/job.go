// Package job models deep-learning training (DLT) jobs as the
// scheduler sees them: a gang of GPUs, a stream of minibatches whose
// per-iteration time depends on the GPU generation, and
// suspend/resume/migration costs.
//
// The scheduler never looks inside a training framework; everything it
// needs is (a) progress per unit time per generation, observable at
// iteration boundaries, and (b) the cost of moving or pausing the job.
// Both are modeled explicitly here, which is what makes the simulated
// substrate faithful for scheduling purposes.
package job

import (
	"fmt"
	"math"

	"repro/internal/gpu"
	"repro/internal/simclock"
)

// ID identifies a job, unique within a simulation.
type ID int64

// UserID identifies the user (tenant) owning a job.
type UserID string

// Perf is a model's performance profile: how fast one minibatch runs
// on each GPU generation, how the job scales with gang size, and how
// expensive it is to checkpoint. Profiles are shared (one per model in
// the zoo) and must be treated as immutable.
type Perf struct {
	Model string

	// RatePerGPU is minibatches/second when running on a single GPU
	// of each generation. A zero entry means the model cannot run on
	// that generation at all.
	RatePerGPU [gpu.NumGenerations]float64

	// ScalingEff is the per-GPU efficiency when the gang grows: a
	// gang of n GPUs achieves n·eff(n) single-GPU throughput where
	// eff(1)=1 and eff(n)=ScalingEff for n>1 (synchronous SGD loses a
	// roughly constant fraction to all-reduce). Must be in (0, 1].
	ScalingEff float64

	// MemGBPerGPU is device memory needed per GPU; the job only fits
	// on generations with at least this much memory.
	MemGBPerGPU float64

	// CheckpointMB is the serialized checkpoint size, which drives
	// migration cost.
	CheckpointMB float64
}

// Validate reports whether the profile is internally consistent.
func (p *Perf) Validate() error {
	if p.Model == "" {
		return fmt.Errorf("job: perf with empty model name")
	}
	if p.ScalingEff <= 0 || p.ScalingEff > 1 {
		return fmt.Errorf("job: %s: ScalingEff %v outside (0,1]", p.Model, p.ScalingEff)
	}
	any := false
	for _, r := range p.RatePerGPU {
		if r < 0 {
			return fmt.Errorf("job: %s: negative rate", p.Model)
		}
		if r > 0 {
			any = true
		}
	}
	if !any {
		return fmt.Errorf("job: %s: runs on no generation", p.Model)
	}
	if p.MemGBPerGPU < 0 || p.CheckpointMB < 0 {
		return fmt.Errorf("job: %s: negative memory or checkpoint size", p.Model)
	}
	return nil
}

// FitsOn reports whether the model can run on generation g (nonzero
// rate and enough device memory).
func (p *Perf) FitsOn(g gpu.Generation) bool {
	return g.Valid() && p.RatePerGPU[g] > 0 && p.MemGBPerGPU <= g.MemGB()
}

// Speedup returns the per-GPU throughput ratio of generation fast over
// generation slow — the marginal utility the trading mechanism
// arbitrages. Returns 0 if the model does not run on either.
func (p *Perf) Speedup(fast, slow gpu.Generation) float64 {
	if !p.FitsOn(fast) || !p.FitsOn(slow) {
		return 0
	}
	return p.RatePerGPU[fast] / p.RatePerGPU[slow]
}

// GangEff returns the scaling efficiency for a gang of n GPUs.
func (p *Perf) GangEff(n int) float64 {
	if n <= 1 {
		return 1
	}
	return p.ScalingEff
}

// State is a job's lifecycle state. It is one byte so that Job, which
// packs its flags beside it, stays in its allocation size class.
type State int8

const (
	// Runnable: arrived and waiting for (more) GPU time.
	Runnable State = iota
	// Running: currently assigned GPUs for the ongoing quantum.
	Running
	// Done: training complete.
	Done
)

func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Spec is the immutable description of a job at submission time.
type Spec struct {
	ID      ID
	User    UserID
	Perf    *Perf
	Gang    int     // number of GPUs required, all-or-nothing
	TotalMB float64 // minibatches to completion
	Arrival simclock.Time
}

// Validate checks the spec.
func (s *Spec) Validate() error {
	if s.User == "" {
		return fmt.Errorf("job %d: empty user", s.ID)
	}
	if s.Perf == nil {
		return fmt.Errorf("job %d: nil perf profile", s.ID)
	}
	if err := s.Perf.Validate(); err != nil {
		return fmt.Errorf("job %d: %w", s.ID, err)
	}
	if s.Gang <= 0 {
		return fmt.Errorf("job %d: gang %d must be positive", s.ID, s.Gang)
	}
	if s.TotalMB <= 0 {
		return fmt.Errorf("job %d: total minibatches %v must be positive", s.ID, s.TotalMB)
	}
	if s.Arrival < 0 {
		return fmt.Errorf("job %d: negative arrival", s.ID)
	}
	if a := float64(s.Arrival); math.IsNaN(a) || math.IsInf(a, 0) {
		return fmt.Errorf("job %d: arrival %v is not finite", s.ID, a)
	}
	return nil
}

// Job is the mutable runtime record of one DLT job. It is owned by the
// simulation core; all mutation happens on the single simulation
// goroutine.
type Job struct {
	Spec

	doneMB float64
	finish simclock.Time

	// Accounting.
	gpuSecs    [gpu.NumGenerations]float64 // gang-GPU-seconds of useful service per generation
	overheadS  float64                     // seconds of occupied-but-useless time (resume, migration)
	firstRun   simclock.Time
	migrations int32
	preempts   int32
	crashes    int32 // see Crash
	lastRan    bool  // ran in previous quantum (for resume-overhead modeling)
	everRan    bool

	// Where the job last held devices: the generation of its last
	// dispatch (see NoteDispatch); placed is false until the first.
	placed  bool
	lastGen int8

	// The devices themselves (see Devices): sorted ascending, nil until
	// the job is first placed; holdSlot is nonzero while the placement
	// index still has them taken in the job's name.
	devs     []gpu.DeviceID
	holdSlot int32

	// The engine's marks: for the running round (see BeginRound), where
	// the job is in the round's list of runnable jobs and one past its
	// position in the round's Decision.Run, 0 while it has none; and
	// where its user is in the engine's user list (see NoteUser). The
	// profiler's: one past where it keeps the job's estimates, 0 until
	// the job's first observation (see NoteProfile).
	listAt int32
	reqAt  int32
	userAt int32
	profAt int32

	state State

	// Fault-model state: progress as of the last durable checkpoint and
	// when the interval to the next periodic one started, and the
	// migration-failure backoff (see NoteMigrationFailed): consecutive
	// failed attempts and the last round of the pin they earned.
	ckptOpen    bool
	pinned      bool
	migFails    int32
	pinnedUntil int32
	ckptAt      simclock.Time
	ckptMB      float64
}

// New constructs a runtime job from a validated spec, in an allocation
// of its own. An engine admitting a stream of jobs cuts them from a
// Block instead.
func New(spec Spec) (*Job, error) { return fill(new(Job), spec) }

// fill validates spec and makes j the fresh job it describes: the one
// construction path of New and Block.New. An invalid spec leaves j as
// it was.
func fill(j *Job, spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	*j = Job{Spec: spec, state: Runnable}
	return j, nil
}

// Block hands out jobs cut from blocks of blockSize records, so that
// admitting a thousand jobs makes a handful of allocations, not a
// thousand. A block lives as long as any job cut from it is reachable;
// an engine that keeps its finished jobs pins nothing more. The zero
// Block is ready to use; it is not safe for concurrent use.
type Block struct {
	free []Job // records not yet handed out
}

// blockSize is how many jobs one allocation of a Block holds.
const blockSize = 64

// New is the package's New, the job cut from the block. An invalid spec
// takes no record.
func (b *Block) New(spec Spec) (*Job, error) {
	if len(b.free) == 0 {
		b.free = make([]Job, blockSize)
	}
	j, err := fill(&b.free[0], spec)
	if err == nil {
		b.free = b.free[1:]
	}
	return j, err
}

// MustNew is New but panics on invalid specs. It is test support: the
// tests and fixtures of several packages build jobs with it, and no
// production code calls it.
func MustNew(spec Spec) *Job {
	j, err := New(spec)
	if err != nil {
		panic(err)
	}
	return j
}

// State returns the lifecycle state.
func (j *Job) State() State { return j.state }

// SetRunning transitions between Runnable and Running; the core calls
// this at quantum boundaries. Transitioning a Done job panics.
func (j *Job) SetRunning(running bool) {
	if j.state == Done {
		panic(fmt.Sprintf("job %d: SetRunning on done job", j.ID))
	}
	if running {
		j.state = Running
	} else {
		if j.state == Running {
			j.preempts++
		}
		j.state = Runnable
	}
}

// NoteFirstRun records when the job first received GPUs; only the
// first call has any effect.
func (j *Job) NoteFirstRun(at simclock.Time) {
	if !j.everRan {
		j.everRan = true
		j.firstRun = at
	}
}

// RanLastQuantum reports whether the job held GPUs in the previous
// quantum; the core uses it to decide whether resume overhead applies.
func (j *Job) RanLastQuantum() bool { return j.lastRan }

// NoteQuantum records whether the job ran this quantum, for the next
// round's overhead decision.
func (j *Job) NoteQuantum(ran bool) { j.lastRan = ran }

// GangRate returns the whole-gang minibatch rate on generation g.
func (j *Job) GangRate(g gpu.Generation) float64 {
	if !j.Perf.FitsOn(g) {
		return 0
	}
	return j.Perf.RatePerGPU[g] * float64(j.Gang) * j.Perf.GangEff(j.Gang)
}

// Progress is the arithmetic of one quantum of training: from doneMB of
// totalMB minibatches, at rate minibatches a second, for up to dur
// seconds. It returns the progress afterwards, the seconds actually
// consumed (less than dur only when the job completes mid-quantum) and
// whether it completed. Every executor of a quantum — the simulated one
// and the agents of the distributed runtime — computes it here; a
// nonpositive rate (a plan no scheduler should send) makes no progress.
func Progress(doneMB, totalMB, rate float64, dur simclock.Duration) (float64, simclock.Duration, bool) {
	if rate <= 0 {
		return doneMB, 0, false
	}
	if need := (totalMB - doneMB) / rate; need <= dur {
		return totalMB, need, true
	}
	return doneMB + rate*dur, dur, false
}

// ApplyReport overwrites progress with what an executor reported for a
// quantum (Progress, computed in the engine's own process or on a
// server agent). Progress must be monotone and within TotalMB;
// violations panic because they mean a corrupted or replayed report.
func (j *Job) ApplyReport(doneMB float64, g gpu.Generation, gpuSecs float64, finished bool, at simclock.Time) {
	if j.state == Done {
		panic(fmt.Sprintf("job %d: ApplyReport on done job", j.ID))
	}
	if doneMB < j.doneMB-1e-6 || doneMB > j.TotalMB+1e-6 {
		panic(fmt.Sprintf("job %d: report done %v outside [%v, %v]", j.ID, doneMB, j.doneMB, j.TotalMB))
	}
	if gpuSecs < 0 {
		panic(fmt.Sprintf("job %d: negative reported service", j.ID))
	}
	j.doneMB = math.Min(doneMB, j.TotalMB)
	if g.Valid() {
		j.gpuSecs[g] += gpuSecs
	}
	if finished {
		j.doneMB = j.TotalMB
		j.state = Done
		j.finish = at
	}
}

// AddOverhead charges d seconds of occupied-but-useless GPU time
// (suspend/resume or migration restore). The GPUs are held but no
// minibatches complete.
func (j *Job) AddOverhead(d simclock.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("job %d: negative overhead", j.ID))
	}
	j.overheadS += d
}

// NoteMigration counts one migration of this job.
func (j *Job) NoteMigration() { j.migrations++ }

// NoteDispatch records the generation of the devices the job was just
// dispatched to.
func (j *Job) NoteDispatch(g gpu.Generation) { j.placed, j.lastGen = true, int8(g) }

// LastGen returns the generation the job was last dispatched to — where
// its checkpoint lives, so running anywhere else is a migration; ok is
// false for a job that has never been dispatched.
func (j *Job) LastGen() (g gpu.Generation, ok bool) { return gpu.Generation(j.lastGen), j.placed }

// Devices returns where the job last held devices, sorted ascending:
// the stability baseline of its next placement, and where its
// checkpoint lives. Nil for a job that was never placed. The slice is
// shared — placement hands out a fresh one whenever it moves a job and
// nobody writes into one.
func (j *Job) Devices() []gpu.DeviceID { return j.devs }

// HoldSlot is the placement index's handle on the job while the index
// still has Devices taken in its name (it ran there last round and
// nothing has released them since); 0 when the devices are only where
// the job used to be.
func (j *Job) HoldSlot() int32 { return j.holdSlot }

// SetDevices records where the job holds (slot nonzero) or last held
// (slot 0) devices. Placement writes it when it moves a job; the engine
// when it restores a checkpoint or takes back a failed migration.
func (j *Job) SetDevices(devs []gpu.DeviceID, slot int32) { j.devs, j.holdSlot = devs, slot }

// BeginRound opens a round on the job: it is at position at of the
// engine's list of runnable jobs (RoundState.Jobs), and not requested
// yet.
func (j *Job) BeginRound(at int) { j.listAt, j.reqAt = int32(at), 0 }

// ListAt returns the position BeginRound last recorded. It says where to
// look, not that the job is there: the engine knows its own record by
// finding this very pointer at that position — a copy, a record of
// another engine or one it has retired is not.
func (j *Job) ListAt() int { return int(j.listAt) }

// NoteUser records where the job's user is in the engine's sorted list
// of users, which is the index of the user's entry in every per-user
// table the engine keeps. The engine sets it once, at admission.
func (j *Job) NoteUser(at int) { j.userAt = int32(at) }

// UserAt returns the position NoteUser recorded.
func (j *Job) UserAt() int { return int(j.userAt) }

// NoteProfile records where the profiler keeps the job's estimates. The
// profiler sets it at the job's first observation.
func (j *Job) NoteProfile(at int) { j.profAt = int32(at) + 1 }

// ProfileAt returns the position NoteProfile recorded; ok is false
// before the job's first observation. Like ListAt it says where to look:
// the profiler knows its own record by finding this very job there.
func (j *Job) ProfileAt() (at int, ok bool) { return int(j.profAt) - 1, j.profAt > 0 }

// NoteRequest records the job's position in the running round's
// Decision.Run.
func (j *Job) NoteRequest(at int) { j.reqAt = int32(at) + 1 }

// RequestAt returns the job's position in the running round's
// Decision.Run; ok is false when the round does not run it.
func (j *Job) RequestAt() (at int, ok bool) { return int(j.reqAt) - 1, j.reqAt > 0 }

// NoteMigrationFailed counts one more consecutive failed migration
// attempt and pins the job through round until (its backoff).
func (j *Job) NoteMigrationFailed(until int) {
	j.migFails++
	j.pinnedUntil = int32(until)
}

// MigrationFailures returns how many migration attempts have failed in
// a row.
func (j *Job) MigrationFailures() int { return int(j.migFails) }

// ClearMigrationFailures ends the backoff: a migration went through.
func (j *Job) ClearMigrationFailures() { j.migFails, j.pinnedUntil = 0, 0 }

// RefreshPin settles, at the start of a round, whether the job's
// backoff still holds.
func (j *Job) RefreshPin(round int) { j.pinned = round <= int(j.pinnedUntil) }

// Pinned reports whether the job is in migration-failure backoff this
// round: it may keep its devices or wait, but not move.
func (j *Job) Pinned() bool { return j.pinned }

// NoteCheckpoint records a durable checkpoint at the current progress,
// taken at time at: a later Crash rolls progress back to this point,
// and the interval to the next periodic checkpoint starts over. The
// core calls it on suspend and on migration.
func (j *Job) NoteCheckpoint(at simclock.Time) {
	j.ckptMB = j.doneMB
	j.ckptOpen, j.ckptAt = true, at
}

// PeriodicCheckpoint is called for a quantum [start, end) the job
// trained through: the first one starts the checkpoint interval, and
// once every seconds have passed since the interval started the job
// checkpoints at end — so a crash loses at most that much progress.
func (j *Job) PeriodicCheckpoint(start, end simclock.Time, every simclock.Duration) {
	if !j.ckptOpen {
		j.ckptOpen, j.ckptAt = true, start
	} else if end.Sub(j.ckptAt) >= every {
		j.NoteCheckpoint(end)
	}
}

// Crash models a job crash: progress rolls back to the last durable
// checkpoint, the job drops to Runnable, and its next quantum pays
// resume overhead (restart from checkpoint). It returns the minibatches
// of useful work lost. Crashing a Done job panics — a finished job has
// durably written its result.
func (j *Job) Crash() (lostMB float64) {
	if j.state == Done {
		panic(fmt.Sprintf("job %d: Crash on done job", j.ID))
	}
	lostMB = j.doneMB - j.ckptMB
	j.doneMB = j.ckptMB
	j.state = Runnable
	j.lastRan = false
	j.crashes++
	return lostMB
}

// Crashes returns how many times the job has crashed.
func (j *Job) Crashes() int { return int(j.crashes) }

// DoneMB returns minibatches completed so far.
func (j *Job) DoneMB() float64 { return j.doneMB }

// Progress returns completion fraction in [0, 1].
func (j *Job) Progress() float64 { return j.doneMB / j.TotalMB }

// Finished reports completion.
func (j *Job) Finished() bool { return j.state == Done }

// FinishTime returns when the job completed; calling it on an
// unfinished job panics.
func (j *Job) FinishTime() simclock.Time {
	if j.state != Done {
		panic(fmt.Sprintf("job %d: FinishTime before completion", j.ID))
	}
	return j.finish
}

// JCT returns the job completion time (finish − arrival).
func (j *Job) JCT() simclock.Duration {
	return j.FinishTime().Sub(j.Arrival)
}

// StandaloneTime returns the job's total runtime if run without
// interruption on generation g from the start; +Inf if it cannot run
// there. This is the physics lower bound on its completion time.
func (j *Job) StandaloneTime(g gpu.Generation) simclock.Duration {
	rate := j.GangRate(g)
	if rate <= 0 {
		return simclock.Duration(simclock.Forever)
	}
	return j.TotalMB / rate
}

// AttainedService returns total useful gang-GPU-seconds across all
// generations (the quantity Tiresias prioritizes by).
func (j *Job) AttainedService() float64 {
	var s float64
	for _, v := range j.gpuSecs {
		s += v
	}
	return s
}

// OverheadSeconds returns accumulated overhead (resume+migration).
func (j *Job) OverheadSeconds() float64 { return j.overheadS }

// Migrations returns how many times the job was migrated.
func (j *Job) Migrations() int { return int(j.migrations) }

func (j *Job) String() string {
	return fmt.Sprintf("job %d[user=%s model=%s gang=%d %.0f%% %v]",
		j.ID, j.User, j.Perf.Model, j.Gang, 100*j.Progress(), j.state)
}
