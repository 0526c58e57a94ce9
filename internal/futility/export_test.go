package futility

import "fscache/internal/recency"

// Orders exposes the partitions' recency orders to the external tests.
func (r *ExactLRU) Orders() []recency.Index { return r.parts }

func (r *ExactLRU) Slots() *recency.Table[uint16] { return &r.slot }
