//go:build race

package fcm

// raceEnabled reports whether the race detector instruments this test
// binary.
const raceEnabled = true
