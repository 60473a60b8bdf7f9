//go:build !race

package hfsc

const raceEnabled = false
