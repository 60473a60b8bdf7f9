//go:build race

package hfscmw

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation budgets are not meaningful under it.
const raceEnabled = true
