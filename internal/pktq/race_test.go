//go:build race

package pktq

// raceEnabled reports a -race build, in which sync.Pool drops Puts at
// random, so allocation counts through the pool are not meaningful.
const raceEnabled = true
