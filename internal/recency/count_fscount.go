//go:build fscount

package recency

import "sync/atomic"

var compactWork, relayouts atomic.Uint64

func countCompact(n int32) { compactWork.Add(uint64(n)) }
func countRelayout()       { relayouts.Add(1) }
