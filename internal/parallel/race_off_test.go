//go:build !race

package parallel

// raceEnabled reports whether the race detector is on (see race_on_test.go).
const raceEnabled = false
