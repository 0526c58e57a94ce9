// Package lock is the lockcheck construct-coverage fixture: a shrunken
// shardcache with an engine lock beside its stripe locks.
package lock

import "sync"

// Engine owns the global target state; per-shard state hides behind the
// shard mutexes.
//
//fs:lockorder Engine.big shard.mu
type Engine struct {
	big    sync.Mutex
	shards []*shard
	//fs:guardedby big
	targets []int
}

type shard struct {
	mu sync.Mutex
	rw sync.RWMutex
	//fs:guardedby mu
	demand int
	//fs:guardedby rw
	stats [4]int
}

func Good(s *shard) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.demand++ // ok: s.mu is held
	return s.demand
}

func Bad(s *shard) int {
	s.demand = 1    // want `field lock\.shard\.demand is written without s\.mu held \(//fs:guardedby\)`
	return s.demand // want `field lock\.shard\.demand is read without s\.mu held \(//fs:guardedby\)`
}

func WrongBase(a, b *shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.demand++ // want `field lock\.shard\.demand is written without b\.mu held \(//fs:guardedby\)`
}

func ReadOK(s *shard) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.stats[0] // ok: reads may hold just the RLock
}

func WriteRLock(s *shard) {
	s.rw.RLock()
	s.stats[0]++ // want `field lock\.shard\.stats is written while s\.rw holds only an RLock; writes need Lock \(//fs:guardedby\)`
	s.rw.RUnlock()
}

func WriteLockOK(s *shard) {
	s.rw.Lock()
	s.stats[1] = 9 // ok: exclusive Lock permits writes
	s.rw.Unlock()
}

// bump is documented to run with s.mu already held.
//
//fs:callerholds mu
func bump(s *shard) {
	s.demand++ // ok: //fs:callerholds mu
}

func Rebalance(e *Engine) {
	e.big.Lock()
	defer e.big.Unlock()
	for _, s := range e.shards {
		s.mu.Lock() // ok: big-then-mu matches //fs:lockorder
		s.demand = 0
		bump(s)
		s.mu.Unlock()
	}
	e.targets = e.targets[:0] // ok: e.big held
}

func Inverted(e *Engine, s *shard) {
	s.mu.Lock()
	e.big.Lock() // want `lock\.Engine\.big is acquired while lock\.shard\.mu is held; //fs:lockorder requires the opposite order`
	e.targets = append(e.targets, s.demand)
	e.big.Unlock()
	s.mu.Unlock()
}

func Unlocked(e *Engine) int {
	return len(e.targets) // want `field lock\.Engine\.targets is read without e\.big held \(//fs:guardedby\)`
}

// Spawn shows that a goroutine body is a fresh scope: the enclosing
// function's Lock does not protect it.
func Spawn(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.demand++ // want `field lock\.shard\.demand is written without s\.mu held \(//fs:guardedby\)`
	}()
}

// New constructs a shard; composite-literal field keys are not selector
// accesses, so pre-publication initialization needs no lock.
func New() *shard {
	return &shard{demand: 1} // ok: not yet shared
}
