package job

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/simclock"
)

// Test-side accessors: the engine reads none of these, so they live
// with the tests that pin the job's arithmetic and counters.

// Advance runs the gang on generation g for up to dur seconds of
// useful compute: Progress, applied to the job through ApplyReport, the
// one path every executor uses. It returns the duration actually
// consumed and whether the job finished; now stamps the finish time.
// A done job, a negative duration or a generation the job does not fit
// panics.
func (j *Job) Advance(g gpu.Generation, dur simclock.Duration, now simclock.Time) (used simclock.Duration, finished bool) {
	if j.state == Done {
		panic(fmt.Sprintf("job %d: Advance on done job", j.ID))
	}
	if dur < 0 {
		panic(fmt.Sprintf("job %d: negative duration %v", j.ID, dur))
	}
	rate := j.GangRate(g)
	if rate <= 0 {
		panic(fmt.Sprintf("job %d (%s): advanced on unusable generation %v", j.ID, j.Perf.Model, g))
	}
	doneMB, used, finished := Progress(j.doneMB, j.TotalMB, rate, dur)
	j.ApplyReport(doneMB, g, float64(j.Gang)*used, finished, now.Add(used))
	return used, finished
}

// QueueDelay returns the time the job waited from arrival to its
// first quantum; ok is false if it never ran.
func (j *Job) QueueDelay() (simclock.Duration, bool) {
	if !j.everRan {
		return 0, false
	}
	return j.firstRun.Sub(j.Arrival), true
}

// CheckpointedMB returns progress as of the last durable checkpoint.
func (j *Job) CheckpointedMB() float64 { return j.ckptMB }

// GPUSeconds returns useful gang-GPU-seconds on one generation.
func (j *Job) GPUSeconds(g gpu.Generation) float64 {
	if !g.Valid() {
		return 0
	}
	return j.gpuSecs[g]
}

// Preemptions returns how many times the job was suspended after
// running.
func (j *Job) Preemptions() int { return int(j.preempts) }
