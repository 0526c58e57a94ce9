//go:build fscount

package shardcache

import "sync/atomic"

var stripeLocks atomic.Uint64

func countLock() { stripeLocks.Add(1) }

// StripeLocks returns how many stripe locks Engine.Access, Batch.Access and
// LockStripe (so Lock and Batch.Each) have taken, over every engine in the
// process. Only the fscount build has it.
func StripeLocks() uint64 { return stripeLocks.Load() }
