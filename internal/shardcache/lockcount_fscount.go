//go:build fscount

package shardcache

import "sync/atomic"

var stripeLocks atomic.Uint64

func countLock() { stripeLocks.Add(1) }

// StripeLocks returns how many stripe locks any engine in the process has
// taken: LockStripe's (every request path's) and one a stripe for each
// SetTargets, Rebalance or rebalancer tick, Snapshot, PartSizes and
// CheckInvariants. Only the fscount build has it.
func StripeLocks() uint64 { return stripeLocks.Load() }
