// Package sim provides a deterministic discrete event simulation kernel and
// the pseudo-random number utilities used by every scenario in this
// repository. It replaces the role OMNeT++ plays in the paper: ordered event
// delivery on a virtual clock with reproducible randomness.
package sim

import "fmt"

// Time is a point on the simulation clock, measured in integer microseconds
// since the start of the run. Integer microseconds are exact for every
// duration in the IEEE 802.15.4 timing model (1 symbol = 16 µs), which keeps
// runs bit-for-bit reproducible across platforms.
type Time int64

// Duration constants expressed in simulation Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Never is a sentinel Time that compares after every reachable instant.
const Never Time = 1<<63 - 1

// Seconds converts t to floating point seconds, for reporting only.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// FromSeconds converts floating point seconds to a Time, rounding to the
// nearest microsecond. It is intended for configuration values, not for
// arithmetic inside the kernel.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }
