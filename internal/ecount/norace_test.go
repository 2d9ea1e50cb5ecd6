//go:build !race

package ecount

// raceEnabled reports that the race detector is on (see race_test.go).
const raceEnabled = false
