package fleet

import (
	"sync"
	"time"
)

// AdmissionConfig bounds one tenant's query rate at the router.
type AdmissionConfig struct {
	// Rate is the sustained tokens-per-second refill rate (non-positive:
	// 1000/s).
	Rate float64
	// Burst is the bucket capacity — how many requests may pass
	// back-to-back after an idle period (non-positive: 2×Rate capped to
	// at least 1).
	Burst float64
	// Queue is how many requests may wait for a future token before the
	// limiter starts shedding with 429 (negative: 0, shed immediately
	// when the bucket is empty; 0 means the same).
	Queue int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Rate <= 0 {
		c.Rate = 1000
	}
	if c.Burst <= 0 {
		c.Burst = 2 * c.Rate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	return c
}

// Limiter is the router's per-tenant admission controller: one token
// bucket per tenant, refilled continuously at the configured rate, with
// a bounded reservation queue in front. A request that finds a token
// passes immediately; one that finds the bucket empty but the queue
// short reserves the next future token and is told how long to wait;
// past the queue bound the request is shed (the router answers 429) —
// the bounded queue converts a short burst into latency and a sustained
// overload into explicit backpressure instead of collapse.
//
// Time is passed in, not read: decisions are a pure function of
// (state, now), so tests drive the limiter with a synthetic clock and
// the router passes time.Now().
//
// A bucket that has refilled to Burst is in the same state as a fresh
// one, so the limiter drops such buckets instead of keeping one per
// tenant ever seen: a client cycling X-Tenant values cannot grow router
// memory without limit. Whenever a new tenant would grow the map past
// twice the buckets that survived the last sweep (and past minSweep),
// every full bucket is dropped — amortized O(1) per Admit, and the live
// buckets stay on the order of the distinct tenants seen in the last
// (Burst+Queue)/Rate seconds (Burst/Rate with no queue), the longest an
// admitted bucket takes to refill. With a non-decreasing clock, every
// decision is the one a never-evicting limiter would make.
type Limiter struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	buckets map[string]*bucket // guarded by mu
	sweepAt int                // guarded by mu; map size that triggers the next sweep
}

// minSweep is the bucket count below which the limiter never sweeps.
const minSweep = 64

// bucket is one tenant's token state. tokens may go negative: each unit
// below zero is one queued reservation awaiting a future token.
type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter builds a per-tenant limiter where every tenant gets the
// same config. Tenant buckets are created on first use.
func NewLimiter(cfg AdmissionConfig) *Limiter {
	return &Limiter{cfg: cfg.withDefaults(), buckets: make(map[string]*bucket), sweepAt: minSweep}
}

// Admit decides one request for tenant at time now. ok=false means
// shed (answer 429). ok=true with wait==0 means proceed immediately;
// wait>0 means the request holds a reservation for a future token and
// should be delayed by wait before proceeding.
func (l *Limiter) Admit(tenant string, now time.Time) (wait time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= l.sweepAt {
			l.sweepLocked(now)
		}
		b = &bucket{tokens: l.cfg.Burst, last: now}
		l.buckets[tenant] = b
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * l.cfg.Rate
		if b.tokens > l.cfg.Burst {
			b.tokens = l.cfg.Burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	// Queued reservations are the tokens below zero after this take.
	if -(b.tokens - 1) > float64(l.cfg.Queue) {
		return 0, false
	}
	b.tokens--
	// The reservation matures when the refill brings tokens back to 0.
	return time.Duration(-b.tokens / l.cfg.Rate * float64(time.Second)), true
}

// sweepLocked drops every bucket that has refilled to Burst by now and sets
// the next sweep at twice the survivors. Caller holds l.mu.
func (l *Limiter) sweepLocked(now time.Time) {
	for tenant, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.cfg.Rate >= l.cfg.Burst {
			delete(l.buckets, tenant)
		}
	}
	l.sweepAt = max(2*len(l.buckets), minSweep)
}

// Tenants reports how many tenant buckets exist (observability): the
// tenants whose buckets had not refilled at the last sweep, plus those
// seen since.
func (l *Limiter) Tenants() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}
