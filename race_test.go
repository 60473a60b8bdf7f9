//go:build race

package hfsc

// raceEnabled reports a -race build, whose instrumentation allocates and
// pads, so allocation and footprint budgets are not meaningful under it.
const raceEnabled = true
