// Package order is the three-level lock-order fixture: a striped engine's
// rmu → tmu → stripe.mu discipline in miniature. rmu serializes
// distribution passes, tmu guards only the target vector, and the
// snapshot-then-apply pattern means tmu is never co-held with a stripe
// lock — but the declared order still forbids every inversion, including
// the transitive one (stripe.mu held while rmu is acquired).
package order

import "sync"

//fs:lockorder Engine.rmu Engine.tmu
//fs:lockorder Engine.rmu stripe.mu
//fs:lockorder Engine.tmu stripe.mu
type Engine struct {
	rmu     sync.Mutex
	tmu     sync.Mutex
	stripes []*stripe
	//fs:guardedby tmu
	targets []int
	//fs:guardedby rmu
	scratch []int
}

type stripe struct {
	mu sync.Mutex
	//fs:guardedby mu
	demand []uint64
}

// SnapshotThenApply is the production pattern: copy the targets under tmu,
// release it, then walk the stripes. tmu and stripe.mu are never co-held,
// and every acquisition respects the declared order.
func SnapshotThenApply(e *Engine) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	e.tmu.Lock() // ok: rmu-then-tmu matches //fs:lockorder
	e.scratch = append(e.scratch[:0], e.targets...)
	e.tmu.Unlock()
	for _, s := range e.stripes {
		s.mu.Lock() // ok: rmu-then-mu matches //fs:lockorder; tmu already released
		s.demand[0] = 0
		s.mu.Unlock()
	}
}

// HeldAcross co-holds tmu with the stripe locks. Legal under the declared
// order (tmu before stripe.mu) — the fixture pins that the analyzer
// permits it, since the snapshot-then-apply split is a latency choice,
// not a correctness requirement the analyzer could see.
func HeldAcross(e *Engine) {
	e.tmu.Lock()
	for _, s := range e.stripes {
		s.mu.Lock() // ok: tmu-then-mu matches //fs:lockorder
		s.demand[0] = uint64(e.targets[0])
		s.mu.Unlock()
	}
	e.tmu.Unlock()
}

func InvertedTmu(e *Engine, s *stripe) {
	s.mu.Lock()
	e.tmu.Lock() // want `order\.Engine\.tmu is acquired while order\.stripe\.mu is held; //fs:lockorder requires the opposite order`
	e.targets[0] = int(s.demand[0])
	e.tmu.Unlock()
	s.mu.Unlock()
}

func InvertedRmu(e *Engine, s *stripe) {
	s.mu.Lock()
	e.rmu.Lock() // want `order\.Engine\.rmu is acquired while order\.stripe\.mu is held; //fs:lockorder requires the opposite order`
	e.scratch = e.scratch[:0]
	e.rmu.Unlock()
	s.mu.Unlock()
}

func InvertedPair(e *Engine) {
	e.tmu.Lock()
	e.rmu.Lock() // want `order\.Engine\.rmu is acquired while order\.Engine\.tmu is held; //fs:lockorder requires the opposite order`
	e.scratch = e.scratch[:0]
	e.rmu.Unlock()
	e.tmu.Unlock()
}
