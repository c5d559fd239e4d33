//go:build race

package router

// raceEnabled reports whether the race detector is active; allocation
// accounting is skewed by its instrumentation, so alloc-budget
// assertions skip themselves under -race.
const raceEnabled = true
