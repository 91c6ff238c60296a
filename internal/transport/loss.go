package transport

import (
	"math/rand"
	"sync"

	"locsvc/internal/msg"
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

// NewLoss returns a loss model that drops with probability rate in [0,1],
// drawing from a source seeded with seed; seed 0 means 1.
func NewLoss(rate float64, seed int64) *Loss {
	if seed == 0 {
		seed = 1
	}
	return &Loss{rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// SetRate changes the loss probability at runtime. Soak tests use it to
// stage lossless setup and verification phases around a lossy window.
func (l *Loss) SetRate(rate float64) {
	l.mu.Lock()
	l.rate = rate
	l.mu.Unlock()
}

// Drop draws one loss decision.
func (l *Loss) Drop() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate > 0 && l.rng.Float64() < l.rate
}

// Plan is a FaultPlan that drops each delivery with the loss probability.
func (l *Loss) Plan(_, _ msg.NodeID, _ msg.Envelope) Fault {
	return Fault{Drop: l.Drop()}
}
