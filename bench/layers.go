package main

import (
	"bytes"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/hashing"
	"fscache/internal/ost"
	"fscache/internal/server"
	"fscache/internal/shardcache"
	"fscache/internal/xrand"
)

// Standalone per-layer measurements of the traced pass. Each feeds inputs
// recorded from the workload to one layer's public functions, in blocks,
// and reports the median block's nanoseconds per call: what that layer
// costs on this workload's data with nothing else in the way. A workload
// runs only the replays of layers it loads.

const (
	replayOps    = 20_000 // calls per timed block
	replayBlocks = 9
)

// replayLen is how much of a stream a replay walks.
func replayLen(rc *runCtx) int { return rc.scale(replayOps * replayBlocks) }

// blocksOver times fn over consecutive replayOps-sized blocks of [0, n).
func blocksOver(n int, fn func(lo, hi int)) float64 {
	blocks := max(n/replayOps, 1)
	size := n / blocks
	i := 0
	return blockNS(blocks, size, func() {
		fn(i*size, (i+1)*size)
		i++
	})
}

// wireLayers times the exported codec on frames shaped like the workload's:
// a GET request with a 16-byte key and a reply carrying one value.
func wireLayers(rc *runCtx, spec *serveSpec, out map[string]float64) {
	var key [keyLen]byte
	putKey(key[:], 1, 12345)
	val := append(make([]byte, valHeader), genValueBody(rc.seed, spec.valLen-valHeader)...)
	stampValue(val, 1, 12345, 7)
	req := server.Request{Op: server.OpGet, Tenant: 1, Seq: 9, Key: key[:]}
	resp := server.Response{Status: server.StatusOK, Tenant: 1, Flags: server.FlagHit, Seq: 9, Value: val}
	n := rc.scale(replayOps)

	var frame, payload []byte
	out["server.wire.append_request_ns"] = blockNS(replayBlocks, n, func() {
		for range n {
			frame = server.AppendRequest(frame[:0], &req)
		}
	})
	reqPayload := frame[4:]
	var sink uint32
	out["server.wire.parse_request_ns"] = blockNS(replayBlocks, n, func() {
		for range n {
			r, _ := server.ParseRequest(reqPayload)
			sink += r.Seq
		}
	})
	out["server.wire.append_response_ns"] = blockNS(replayBlocks, n, func() {
		for range n {
			frame = server.AppendResponse(frame[:0], &resp)
		}
	})
	respPayload := frame[4:]
	out["server.wire.parse_response_ns"] = blockNS(replayBlocks, n, func() {
		for range n {
			r, _ := server.ParseResponse(respPayload)
			sink += r.Seq
		}
	})
	rd := bytes.NewReader(nil)
	out["server.wire.read_frame_ns"] = blockNS(replayBlocks, n, func() {
		for range n {
			rd.Reset(frame)
			payload, _ = server.ReadFrame(rd, payload)
		}
	})
	calibSink += sink
}

// ladder measures one round trip of each request class on a single
// connection to a fresh server whose cache is full, the five classes taken
// in turn so that drift hits them alike. The differences between rungs are
// the cost of the work one class does and the one below it does not.
func ladder(rc *runCtx, out map[string]float64, t *trial) {
	spec := &serveSpec{valLen: 64, depth: 1}
	srv, err := newServer()
	if err != nil {
		t.check(false, "ladder server: %v", err)
		return
	}
	defer func() {
		err := srv.Shutdown(5 * time.Second)
		t.check(err == nil, "ladder shutdown: %v", err)
	}()
	c, err := dialClient(srv.Addr().String(), spec, rc.seed, 99)
	if err != nil {
		t.check(false, "ladder dial: %v", err)
		return
	}
	defer c.nc.Close()

	// Fill the cache with tenant 0's keys: from here on every new key evicts.
	fill := make([]serveOp, serveLines*3/2)
	for i := range fill {
		fill[i] = serveOp{Key: uint32(i)}
	}
	c.prime(fill)

	rounds := rc.scale(4000)
	names := []string{"ping", "get_absent", "get_hit", "set_resident", "set_evict"}
	lat := make([][]float64, len(names))
	fresh := uint32(len(fill))
	var frame []byte
	for i := range rounds {
		hot := uint32(1<<24 + i%64)
		if i < 64 {
			c.roundTrip([]serveOp{{Key: hot}}, true)
		}
		for k, name := range names {
			start := time.Now()
			ok := true
			switch name {
			case "ping":
				frame = server.AppendRequest(frame[:0], &server.Request{Op: server.OpPing, Seq: c.seq})
				c.seq++
				_, err := c.nc.Write(frame)
				if err == nil {
					c.payload, err = server.ReadFrame(c.br, c.payload)
				}
				ok = err == nil
			case "get_absent":
				hits := c.hits
				ok = c.roundTrip([]serveOp{{Key: 1<<30 + uint32(i)}}, false) && c.hits == hits
			case "get_hit":
				hits := c.hits
				ok = c.roundTrip([]serveOp{{Key: hot}}, false) && c.hits == hits+1
			case "set_resident":
				ok = c.roundTrip([]serveOp{{Key: hot}}, true)
			case "set_evict":
				fresh++
				ok = c.roundTrip([]serveOp{{Key: fresh}}, true)
			}
			lat[k] = append(lat[k], float64(time.Since(start))/1e3)
			t.check(ok, "ladder %s: unexpected reply (%v)", name, c.err)
		}
	}
	t.check(c.failed == 0, "ladder: %d failed operations", c.failed)
	for k, name := range names {
		out["server.ladder."+name+"_us"] = median(lat[k])
	}
}

// shardcacheLayers replays stream on a fresh engine from one goroutine:
// plain and batched access cost without sharing, and the maintenance calls
// that run under the stripe locks.
func shardcacheLayers(rc *runCtx, parts int, targets []int, stream []access, out map[string]float64) {
	n := min(replayLen(rc), len(stream))
	stream = stream[:n]
	e := shardcache.New(engineConfig(parts))
	e.SetTargets(targets)
	for _, a := range stream {
		e.Access(a.Addr, a.Part)
	}
	out["shardcache.access_solo_ns"] = blocksOver(n, func(lo, hi int) {
		for _, a := range stream[lo:hi] {
			e.Access(a.Addr, a.Part)
		}
	})
	b := e.NewBatch()
	results := make([]core.AccessResult, 16)
	out["shardcache.batch_access_ns_per_req"] = blocksOver(n, func(lo, hi int) {
		for ; lo+16 <= hi; lo += 16 {
			b.Access(stream[lo:lo+16], results)
		}
	})
	out["shardcache.rebalance_us"] = blockNS(20, 1, e.Rebalance) / 1e3
	out["shardcache.set_targets_us"] = blockNS(20, 1, func() { e.SetTargets(targets) }) / 1e3
	out["shardcache.snapshot_us"] = blockNS(20, 1, func() { _ = e.Snapshot() }) / 1e3
}

// lowerLayers replays stream's addresses on the structures under core:
// hash, arrays, rankers and the treap, each sized like the workload's.
func lowerLayers(rc *runCtx, lines, parts int, stream []access, exactDecision, zcache bool, out map[string]float64) {
	n := min(replayLen(rc), len(stream))
	stream = stream[:n]
	var sink uint64

	h3 := hashing.NewH3(systemSeed, lines)
	out["hashing.h3_ns"] = blocksOver(n, func(lo, hi int) {
		for _, a := range stream[lo:hi] {
			sink += h3.Hash(a.Addr)
		}
	})

	// Rankers see (line, partition) pairs; a line keeps one partition, and
	// the stream's reuse pattern carries over through the hash.
	lineOf := make([]int32, n)
	for i, a := range stream {
		lineOf[i] = int32(h3.Hash(a.Addr))
	}
	rankerLayers := func(prefix string, r futility.Ranker) {
		for l := range lines {
			r.OnInsert(l, l%parts, futility.Context{Seq: uint64(l)})
		}
		seq := uint64(lines)
		out[prefix+".on_hit_ns"] = blocksOver(n, func(lo, hi int) {
			for _, l := range lineOf[lo:hi] {
				seq++
				r.OnHit(int(l), int(l)%parts, futility.Context{Seq: seq})
			}
		})
		fr := r.(futility.FastRanker)
		out[prefix+".futility_raw_ns"] = blocksOver(n, func(lo, hi int) {
			for _, l := range lineOf[lo:hi] {
				_, raw := fr.FutilityRaw(int(l), int(l)%parts)
				sink += raw
			}
		})
	}
	if !exactDecision {
		rankerLayers("futility.coarse", futility.New(futility.CoarseLRU, lines, parts, systemSeed))
	}
	rankerLayers("futility.exact", futility.New(futility.LRU, lines, parts, systemSeed))

	// One partition's treap at the partition's mean size: the hit path of
	// an exact ranker is a delete plus an insert, a futility query a rank.
	tree := ost.New(systemSeed)
	size := max(lines/parts, 2)
	keys := make([]ost.Key, size)
	for i := range keys {
		keys[i] = ost.Key{Primary: ^uint64(i), Tie: uint64(i)}
		tree.Insert(keys[i], int64(i))
	}
	next := uint64(size)
	out["ost.insert_delete_ns"] = blocksOver(n, func(lo, hi int) {
		for _, l := range lineOf[lo:hi] {
			i := int(l) % size
			tree.Delete(keys[i])
			keys[i] = ost.Key{Primary: ^next, Tie: uint64(i)}
			next++
			tree.Insert(keys[i], int64(i))
		}
	})
	out["ost.rank_ns"] = blocksOver(n, func(lo, hi int) {
		for _, l := range lineOf[lo:hi] {
			r, _ := tree.Rank(keys[int(l)%size])
			sink += uint64(r)
		}
	})

	cands := make([]int, 0, 64)
	if !zcache {
		arr := cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, systemSeed)
		for _, a := range stream {
			if arr.Lookup(a.Addr) < 0 {
				cands = arr.Candidates(a.Addr, cands[:0])
				arr.Install(a.Addr, cands[int(a.Addr>>7)%len(cands)], nil)
			}
		}
		out["cachearray.setassoc.lookup_ns"] = blocksOver(n, func(lo, hi int) {
			for _, a := range stream[lo:hi] {
				sink += uint64(arr.Lookup(a.Addr))
			}
		})
		out["cachearray.setassoc.candidates_ns"] = blocksOver(n, func(lo, hi int) {
			for _, a := range stream[lo:hi] {
				cands = arr.Candidates(a.Addr, cands[:0])
			}
		})
	} else {
		z := cachearray.NewZCache(lines, 4, 3, systemSeed)
		var moves []cachearray.Move
		install := func(lo, hi int) {
			for _, a := range stream[lo:hi] {
				if z.Lookup(a.Addr) < 0 {
					cands = z.Candidates(a.Addr, cands[:0])
					moves = z.Install(a.Addr, cands[len(cands)-1], moves[:0])
				}
			}
		}
		install(0, n)
		out["cachearray.zcache.candidates_ns"] = blocksOver(n, func(lo, hi int) {
			for _, a := range stream[lo:hi] {
				cands = z.Candidates(a.Addr, cands[:0])
			}
		})
		// Addresses the array has never held, so that every call walks the
		// candidate tree and relocates along the victim's path.
		fresh := uint64(1) << 50
		out["cachearray.zcache.install_ns"] = blocksOver(n, func(lo, hi int) {
			for range hi - lo {
				fresh++
				addr := xrand.Mix64(fresh)
				cands = z.Candidates(addr, cands[:0])
				moves = z.Install(addr, cands[len(cands)-1], moves[:0])
			}
		})
	}
	calibSink += uint32(sink)
}

// allocLayers replays stream through a fresh allocator and profiler.
func allocLayers(rc *runCtx, stream []access, out map[string]float64) {
	n := min(replayLen(rc), len(stream))
	stream = stream[:n]
	al := newAllocator()
	out["alloc.observe_ns"] = blocksOver(n, func(lo, hi int) {
		for _, a := range stream[lo:hi] {
			al.Observe(a.Part, a.Addr)
		}
	})
	out["alloc.epoch_us"] = blockNS(10, 1, al.Flush) / 1e3
	// The allocator's default sampling filter, applied to this stream.
	p := alloc.NewProfiler(1<<16, 3, systemSeed)
	for _, a := range stream {
		p.Touch(a.Addr)
	}
	out["alloc.sampled_frac"] = float64(p.SampledCount()) / float64(max(n, 1))
}

func serveLayers(rc *runCtx, spec *serveSpec, out map[string]float64, t *trial) {
	wireLayers(rc, spec, out)
	ladder(rc, out, t)
	keys := int(spec.keysPerLine * serveLines)
	script := genServeOps(rc.seed, 0, replayLen(rc), serveTenants, keys, 0.9, spec.setFrac)
	stream := make([]access, len(script))
	for i, op := range script {
		stream[i] = access{Addr: keyAddr(op.Tenant, op.Key), Part: int(op.Tenant)}
	}
	shardcacheLayers(rc, serveTenants, []int{serveLines / 2, serveLines / 2}, stream, out)
}

func engineLayers(rc *runCtx, out map[string]float64, _ *trial) {
	stream := genEngineStream(rc.seed, 0, replayLen(rc), serveLines)
	shardcacheLayers(rc, engineParts, engineTargets(), stream, out)
	lowerLayers(rc, serveLines, engineParts, stream, false, false, out)
	allocLayers(rc, stream, out)
}

func simLayers(rc *runCtx, spec *simSpec, out map[string]float64, _ *trial) {
	warm := rc.scale(spec.warm)
	stream := spec.gen(rc.seed, warm, warm+replayLen(rc))[warm:]
	zc := spec == simZ52
	lowerLayers(rc, spec.lines, spec.parts, stream, zc, zc, out)
	// What the replay loop itself costs per access: reading the stream and
	// folding an outcome into the digest.
	digest := uint64(0)
	out["bench.loadgen_ns_per_op"] = blocksOver(len(stream), func(lo, hi int) {
		for _, a := range stream[lo:hi] {
			digest = foldResult(digest, core.AccessResult{Hit: a.Part&1 == 0, EvictedLine: int(a.Addr)})
		}
	})
	calibSink += uint32(digest)
}
