package job

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/simclock"
)

// Checkpoint is a serializable snapshot of one job's full runtime
// state. The distributed central scheduler persists these to disk so
// a restarted coordinator resumes exactly where the crashed one
// stopped — the on-disk analogue of the checkpoint-on-the-wire
// semantics agents already work with.
type Checkpoint struct {
	Spec         Spec
	State        State
	DoneMB       float64
	Finish       simclock.Time
	GPUSecs      [gpu.NumGenerations]float64
	OverheadSecs float64
	Migrations   int
	Preemptions  int
	LastRan      bool
	FirstRun     simclock.Time
	EverRan      bool
	CkptMB       float64
	Crashes      int

	// Where the job last held devices, its periodic-checkpoint clock and
	// its migration-failure backoff (see the accessors on Job). Whether
	// the pin holds in a given round is not saved: the engine settles it
	// at every round start.
	Placed      bool
	LastGen     gpu.Generation
	CkptOpen    bool
	CkptAt      simclock.Time
	MigFails    int32
	PinnedUntil int32
}

// Checkpoint captures the job's current state.
func (j *Job) Checkpoint() Checkpoint {
	return Checkpoint{
		Spec:         j.Spec,
		State:        j.state,
		DoneMB:       j.doneMB,
		Finish:       j.finish,
		GPUSecs:      j.gpuSecs,
		OverheadSecs: j.overheadS,
		Migrations:   int(j.migrations),
		Preemptions:  int(j.preempts),
		LastRan:      j.lastRan,
		FirstRun:     j.firstRun,
		EverRan:      j.everRan,
		CkptMB:       j.ckptMB,
		Crashes:      int(j.crashes),
		Placed:       j.placed,
		LastGen:      gpu.Generation(j.lastGen),
		CkptOpen:     j.ckptOpen,
		CkptAt:       j.ckptAt,
		MigFails:     j.migFails,
		PinnedUntil:  j.pinnedUntil,
	}
}

// FromCheckpoint rebuilds a job from a checkpoint, validating that
// the state is internally consistent.
func FromCheckpoint(cp Checkpoint) (*Job, error) {
	if err := cp.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("job: checkpoint: %w", err)
	}
	switch cp.State {
	case Runnable, Running, Done:
	default:
		return nil, fmt.Errorf("job %d: checkpoint with invalid state %d", cp.Spec.ID, cp.State)
	}
	if cp.DoneMB < 0 || cp.DoneMB > cp.Spec.TotalMB+1e-6 {
		return nil, fmt.Errorf("job %d: checkpoint done %v outside [0, %v]",
			cp.Spec.ID, cp.DoneMB, cp.Spec.TotalMB)
	}
	if cp.State == Done && cp.DoneMB < cp.Spec.TotalMB-1e-6 {
		return nil, fmt.Errorf("job %d: checkpoint done-state at %v of %v minibatches",
			cp.Spec.ID, cp.DoneMB, cp.Spec.TotalMB)
	}
	for _, s := range cp.GPUSecs {
		if s < 0 {
			return nil, fmt.Errorf("job %d: checkpoint with negative service", cp.Spec.ID)
		}
	}
	if cp.OverheadSecs < 0 || cp.Migrations < 0 || cp.Preemptions < 0 {
		return nil, fmt.Errorf("job %d: checkpoint with negative accounting", cp.Spec.ID)
	}
	if cp.CkptMB < 0 || cp.CkptMB > cp.DoneMB+1e-6 {
		return nil, fmt.Errorf("job %d: checkpoint progress %v outside [0, %v]",
			cp.Spec.ID, cp.CkptMB, cp.DoneMB)
	}
	if cp.Crashes < 0 {
		return nil, fmt.Errorf("job %d: checkpoint with negative crash count", cp.Spec.ID)
	}
	if !cp.LastGen.Valid() {
		return nil, fmt.Errorf("job %d: checkpoint last ran on invalid generation %d", cp.Spec.ID, cp.LastGen)
	}
	if cp.MigFails < 0 || cp.PinnedUntil < 0 {
		return nil, fmt.Errorf("job %d: checkpoint with negative migration backoff", cp.Spec.ID)
	}
	return &Job{
		Spec:        cp.Spec,
		state:       cp.State,
		doneMB:      cp.DoneMB,
		finish:      cp.Finish,
		gpuSecs:     cp.GPUSecs,
		overheadS:   cp.OverheadSecs,
		migrations:  int32(cp.Migrations),
		preempts:    int32(cp.Preemptions),
		lastRan:     cp.LastRan,
		firstRun:    cp.FirstRun,
		everRan:     cp.EverRan,
		ckptMB:      cp.CkptMB,
		crashes:     int32(cp.Crashes),
		placed:      cp.Placed,
		lastGen:     int8(cp.LastGen),
		ckptOpen:    cp.CkptOpen,
		ckptAt:      cp.CkptAt,
		migFails:    int32(cp.MigFails),
		pinnedUntil: int32(cp.PinnedUntil),
	}, nil
}
