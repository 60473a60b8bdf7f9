//go:build !race

package pktq

const raceEnabled = false
