//go:build !race

package fcm

// raceEnabled reports whether the race detector instruments this test
// binary (allocation budgets and the slowest reference walks are
// skipped under it).
const raceEnabled = false
