//go:build fscount

package futility

import "sync/atomic"

var queries atomic.Uint64

func CountQuery() { queries.Add(1) }

// Queries returns how many ranker queries every FutilityRaw and
// CoarseTS.Distance have counted, over the process. Only the fscount build
// has it.
func Queries() uint64 { return queries.Load() }
