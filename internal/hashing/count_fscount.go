//go:build fscount

package hashing

import "sync/atomic"

var h3Evals atomic.Uint64

func CountH3() { h3Evals.Add(1) }

// H3Evals returns how many H3 evaluations SetAssoc's set index, Family's
// table passes (one per zcache address, for all of its ways) and
// shardcache's stripe router have counted, over the process.
// Only the fscount build has it.
func H3Evals() uint64 { return h3Evals.Load() }
