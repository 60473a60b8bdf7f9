//go:build !race

package hfscmw

const raceEnabled = false
