package main

import (
	"duet/internal/runtime"
	"duet/internal/schedule"
	"duet/internal/vclock"
)

// This file names the virtual-clock type, so under the vclockpurity rule it
// must not read the wall clock; the benchmark's timing lives in the files
// that never import vclock.

// countingMeasure wraps a scheduler measurement function, counting calls.
func countingMeasure(m schedule.Measure, calls *int) schedule.Measure {
	return func(p runtime.Placement) (vclock.Seconds, error) {
		*calls++
		return m(p)
	}
}
