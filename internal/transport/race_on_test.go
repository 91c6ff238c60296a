//go:build race

package transport

// raceEnabled reports whether the race detector instruments this test
// binary (it slows every goroutine, so scheduling-shaped bounds skip).
const raceEnabled = true
