//go:build race

package store

// raceEnabled reports whether the race detector instruments this test
// binary (it allocates on its own, so allocation pins skip).
const raceEnabled = true
