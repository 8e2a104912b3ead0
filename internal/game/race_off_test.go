//go:build !race

package game

// raceEnabled reports whether the race detector is on (see race_on_test.go).
const raceEnabled = false
