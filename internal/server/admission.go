package server

import (
	"sync"
	"sync/atomic"
)

// SLOClass is a tenant's service class: it decides which rung of the
// degradation ladder (DESIGN.md §14) the tenant falls to under pressure.
type SLOClass uint8

const (
	// Guaranteed tenants keep answering under overload: reads fall back
	// to the stale fast path (store bytes, no engine access) before they
	// error, and only the hard in-flight limit rejects them outright.
	Guaranteed SLOClass = iota
	// BestEffort tenants are shed first: at the soft in-flight watermark,
	// or on an empty token bucket, their requests return StatusShed
	// without touching the engine.
	BestEffort
)

func (c SLOClass) String() string {
	if c == Guaranteed {
		return "guaranteed"
	}
	return "best-effort"
}

// TenantConfig configures one tenant (= one FS partition).
type TenantConfig struct {
	// Class is the tenant's SLO class.
	Class SLOClass
	// Rate is the sustained admission rate in requests/second the
	// tenant's token bucket refills at. Zero means unlimited (no bucket).
	Rate float64
	// Burst is the bucket depth in requests; it bounds how far above
	// Rate a tenant can spike. Defaults to Rate/10 (100ms of burst),
	// minimum 1, when zero.
	Burst float64
}

// tokenBucket is a standard refill-on-demand token bucket, one per tenant,
// driven by the request's own clock read. One small mutex per tenant is
// fine: the bucket is touched once per request and tenants are independent,
// so the engine's stripe locks — not this — are the contended resource.
type tokenBucket struct {
	rate  float64 // tokens per nanosecond
	burst float64

	mu sync.Mutex
	//fs:guardedby mu
	tokens float64
	//fs:guardedby mu
	lastNS int64
}

func newTokenBucket(ratePerSec, burst float64) *tokenBucket {
	if ratePerSec <= 0 {
		return nil // unlimited
	}
	if burst <= 0 {
		burst = ratePerSec / 10
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{
		rate:   ratePerSec / 1e9,
		burst:  burst,
		tokens: burst,
	}
}

// admit takes one token if available. nowNS is the request's start as a
// monotonic offset from server start; readings from concurrent connections
// may arrive out of order, and a stale one refills nothing.
func (b *tokenBucket) admit(nowNS int64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	elapsed := nowNS - b.lastNS
	if elapsed > 0 {
		b.tokens += float64(elapsed) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.lastNS = nowNS
	}
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	b.mu.Unlock()
	return ok
}

// verdict is one rung of the degradation ladder.
type verdict uint8

const (
	// vAdmit runs the request through the engine normally.
	vAdmit verdict = iota
	// vShed drops the request with StatusShed (retryable).
	vShed
	// vStale serves a guaranteed GET from the byte store without touching
	// the engine.
	vStale
	// vReject drops the request with StatusOverload (hard limit).
	vReject
)

// tenantState is the per-tenant admission and accounting state.
type tenantState struct {
	cfg    TenantConfig
	bucket *tokenBucket

	// Counters are atomics: they are bumped on the hot path by every
	// connection goroutine and read lock-free by the stats snapshot.
	admitted   atomic.Uint64
	shed       atomic.Uint64
	staleServe atomic.Uint64
	rejected   atomic.Uint64
	deadlined  atomic.Uint64
	hits       atomic.Uint64
	misses     atomic.Uint64
}

// admission is the server-wide overload ladder: a soft and a hard
// in-flight watermark over the per-tenant buckets.
type admission struct {
	tenants []*tenantState
	soft    int64
	hard    int64

	// inflight counts responses from the moment they are encoded until
	// the write that carries them returns, so a client that stops reading
	// raises measured load and trips shedding — backpressure reaches
	// admission. A stalled client holds at most one batch (≤ outMaxResps
	// responses, the write it blocks) until the slow-client bound drops
	// it.
	inflight atomic.Int64
}

func newAdmission(tenants []TenantConfig, soft, hard int) *admission {
	a := &admission{
		tenants: make([]*tenantState, len(tenants)),
		soft:    int64(soft),
		hard:    int64(hard),
	}
	for i, tc := range tenants {
		a.tenants[i] = &tenantState{
			cfg:    tc,
			bucket: newTokenBucket(tc.Rate, tc.Burst),
		}
	}
	return a
}

// decide walks the ladder for one request. It does not change inflight;
// the caller tracks request lifetime.
//
// Ladder (first matching rung wins):
//
//  1. inflight ≥ hard                        → reject (everyone)
//  2. best-effort ∧ (inflight ≥ soft ∨ no token) → shed
//  3. guaranteed ∧ (inflight ≥ soft ∨ no token):
//     GET → stale-serve, otherwise → shed
//  4. admit
func (a *admission) decide(t *tenantState, op Op, nowNS int64) verdict {
	inflight := a.inflight.Load()
	if inflight >= a.hard {
		t.rejected.Add(1)
		return vReject
	}
	pressed := inflight >= a.soft
	if !pressed && t.bucket.admit(nowNS) {
		t.admitted.Add(1)
		return vAdmit
	}
	// Over the soft watermark or out of tokens: degrade by class. A
	// pressed admit would still have consumed a token above; when pressed
	// we deliberately do not draw from the bucket, so post-overload the
	// tenant resumes with its burst intact.
	if t.cfg.Class == Guaranteed && op == OpGet {
		t.staleServe.Add(1)
		return vStale
	}
	t.shed.Add(1)
	return vShed
}
