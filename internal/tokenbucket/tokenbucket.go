// Package tokenbucket is the token bucket that bounds speculative sends:
// the httpapi client's retries and the fleet router's hedges. Each send
// spends one token and each plain success earns ratio back, capped at
// burst, so at steady state speculative sends stay near ratio of
// traffic. When nothing succeeds, nothing is earned and the sends stop,
// instead of multiplying the offered load exactly when capacity ran
// out. The bucket starts full, so a cold caller can still rescue its
// first transients.
package tokenbucket

import "sync"

// Bucket is one token bucket, safe for concurrent use.
type Bucket struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
	burst  float64
}

// New returns a full bucket that earns ratio per success and holds at
// most burst tokens. burst <= 0 disables it: Spend always allows.
func New(ratio float64, burst int) *Bucket {
	return &Bucket{tokens: float64(burst), ratio: ratio, burst: float64(burst)}
}

// Spend reports whether a speculative send may go out, consuming one
// token when it does.
func (b *Bucket) Spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.burst <= 0 {
		return true
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Earn credits the bucket for one success.
func (b *Bucket) Earn() {
	b.mu.Lock()
	if b.tokens += b.ratio; b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}
