//go:build !fscount

package stats

// The counted-work hooks inline to nothing here; the fscount build
// (count_fscount.go) counts each for ReadCounted, which every package's
// counted_test.go reads (`make counted`). They are called at:
//   - CountQuery: each ranker query, in every FutilityRaw and CoarseTS.Distance;
//   - CountH3: each H3 evaluation, in SetAssoc.index, Family.Sum (one table
//     pass for all of a zcache's ways) and shardcache's router (route).
//     H3.Hash's callers count, as inside it the call would break its inlining;
//   - CountLock: each shardcache stripe lock: LockStripe's, and one a stripe
//     for each SetTargets, Rebalance (or rebalancer tick), Snapshot,
//     PartSizes and CheckInvariants;
//   - CountCompact(n), CountRelayout: a recency compaction's work (slots
//     renumbered plus bitmap words scanned) and a recency set's relayout.

func CountQuery()        {}
func CountH3()           {}
func CountLock()         {}
func CountCompact(int32) {}
func CountRelayout()     {}
