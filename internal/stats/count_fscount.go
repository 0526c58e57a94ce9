//go:build fscount

package stats

import "sync/atomic"

var queries, h3Evals, locks, compactWork, relayouts atomic.Uint64

func CountQuery()          { queries.Add(1) }
func CountH3()             { h3Evals.Add(1) }
func CountLock()           { locks.Add(1) }
func CountCompact(n int32) { compactWork.Add(uint64(n)) }
func CountRelayout()       { relayouts.Add(1) }

// Counted is the process's counted work so far, a field per hook (count.go).
type Counted struct{ Queries, H3, Locks, CompactWork, Relayouts uint64 }

// ReadCounted returns every counter. Only the fscount build has it.
func ReadCounted() Counted {
	return Counted{queries.Load(), h3Evals.Load(), locks.Load(), compactWork.Load(), relayouts.Load()}
}

// Sub returns the work counted since before, field by field.
func (c Counted) Sub(before Counted) Counted {
	return Counted{c.Queries - before.Queries, c.H3 - before.H3, c.Locks - before.Locks,
		c.CompactWork - before.CompactWork, c.Relayouts - before.Relayouts}
}
