package core

// FullPath hides its scheme's concrete type and FullSelector mark from New,
// so a cache that would take the raw-only path (FSFeedback over CoarseTS) or
// the pruned one (a FullSelector over ExactLRU) ranks every candidate through
// FutilityRaw instead. It forwards the traffic a Counter scheme keeps
// registers of. Tests compare a cache against its FullPath twin to show the
// fast paths change nothing but their cost.
type FullPath struct{ Scheme }

// OnInsert implements Counter.
func (s FullPath) OnInsert(part int) {
	if c, ok := s.Scheme.(Counter); ok {
		c.OnInsert(part)
	}
}

// OnEviction implements Counter.
func (s FullPath) OnEviction(part int) {
	if c, ok := s.Scheme.(Counter); ok {
		c.OnEviction(part)
	}
}
