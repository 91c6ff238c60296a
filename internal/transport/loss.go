package transport

import (
	"math/rand"
	"sync"
)

// Loss is seeded random datagram loss, the one loss model of both
// networks: an Inproc takes its Plan as InprocOptions.FaultPlan, a UDP
// network takes it through SetLoss. Each decision at a positive rate
// draws one number from the seeded source and a decision at rate 0 draws
// none, so a sequential send schedule loses the same envelopes on every
// run, and a lossless phase staged with SetRate(0) leaves the sequence of
// the lossy phases after it unchanged.
type Loss struct {
	mu   sync.Mutex // guards rate and rng
	rate float64
	rng  *rand.Rand
}

// Drop draws one loss decision.
func (l *Loss) Drop() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate > 0 && l.rng.Float64() < l.rate
}
