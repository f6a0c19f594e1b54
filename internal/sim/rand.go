package sim

import "math/rand"

// Rand wraps math/rand. Every experiment owns its own Rand seeded
// explicitly, so runs are reproducible and independent of global rand
// state.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{rand.New(rand.NewSource(seed))}
}

// Pick returns a uniformly random index in [0, n). It panics for n <= 0.
func (r *Rand) Pick(n int) int { return r.Intn(n) }
