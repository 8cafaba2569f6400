// Package simclock provides the simulation's virtual time: the Time and
// Duration types and a clock the round engine advances quantum by
// quantum. All time in the simulator is virtual. What happens when
// lives in core's event cursor, not here. Nothing in this package is
// safe for concurrent use; the simulation is single-threaded by design
// so that runs are bit-reproducible.
package simclock

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Common durations, in seconds.
const (
	Second Duration = 1
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 86400
)

// Forever is a time later than any a simulation reaches.
const Forever Time = Time(math.MaxFloat64)

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Compare orders t against u by < alone: −1 before, +1 after, else 0 —
// so a NaN is neither, exactly as a less-function sort by time sees it.
func (t Time) Compare(u Time) int {
	switch {
	case t < u:
		return -1
	case u < t:
		return 1
	}
	return 0
}

func (t Time) String() string {
	s := float64(t)
	h := int(s / 3600)
	s -= float64(h) * 3600
	m := int(s / 60)
	s -= float64(m) * 60
	return fmt.Sprintf("%dh%02dm%04.1fs", h, m, s)
}

// Clock is the simulation's clock. It only moves forward.
type Clock struct {
	now Time
}

// New returns a clock at time zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// RunUntil advances the clock to t; a t already past leaves it alone.
func (c *Clock) RunUntil(t Time) {
	if t > c.now {
		c.now = t
	}
}
