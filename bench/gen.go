package main

import (
	"encoding/binary"
	"hash/crc32"

	"fscache/internal/shardcache"
	"fscache/internal/trace"
	"fscache/internal/workload"
	"fscache/internal/xrand"
)

// Input generation. Every stream is a pure function of (seed, workload,
// worker index) and is built before the clock starts; the systems under
// test see only these values. The tests pin that.

// access is one (address, partition) cache access.
type access = shardcache.Access

// serveOp is one scripted client request against the server.
type serveOp struct {
	Key    uint32
	Tenant uint8
	Set    bool // blind overwrite; otherwise a GET (cache-aside SET on NotFound)
}

const keyLen = 16

// putKey writes the 16-byte wire key of (tenant, id) into dst.
func putKey(dst []byte, tenant uint8, id uint32) {
	k := uint64(tenant)<<32 | uint64(id)
	binary.LittleEndian.PutUint64(dst, k)
	binary.LittleEndian.PutUint64(dst[8:], xrand.Mix64(k))
}

// keyAddr is the engine-level stand-in for the server's private key hash,
// used when a serve workload's op stream is replayed against a bare engine.
func keyAddr(tenant uint8, id uint32) uint64 {
	return xrand.Mix64(uint64(tenant)<<32 | uint64(id) | 1<<40)
}

// Values are self-describing so that any GET reply can be checked without
// knowing which connection wrote it last:
//
//	[0:8) key (tenant<<32|id)  [8:12) version  [12:16) CRC-32 of the rest.
const valHeader = 16

// stampValue fills the header of val (whose body is already in place) for
// (tenant, id, version).
func stampValue(val []byte, tenant uint8, id, version uint32) {
	binary.LittleEndian.PutUint64(val, uint64(tenant)<<32|uint64(id))
	binary.LittleEndian.PutUint32(val[8:], version)
	binary.LittleEndian.PutUint32(val[12:], valueSum(val))
}

func valueSum(val []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(val[:12]), crc32.IEEETable, val[valHeader:])
}

// checkValue reports whether val is an intact value of the expected length
// written for (tenant, id).
func checkValue(val []byte, tenant uint8, id uint32, wantLen int) bool {
	return len(val) == wantLen &&
		binary.LittleEndian.Uint64(val) == uint64(tenant)<<32|uint64(id) &&
		binary.LittleEndian.Uint32(val[12:]) == valueSum(val)
}

// genValueBody returns n seeded bytes: the body every value of one
// connection carries behind its header.
func genValueBody(seed uint64, n int) []byte {
	r := xrand.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

// genServeOps scripts n requests for one connection: tenants alternate
// uniformly, keys are zipf(theta) over [0, keys), and setFrac of the
// requests are blind overwrites.
func genServeOps(seed uint64, conn, n, tenants, keys int, theta, setFrac float64) []serveOp {
	r := xrand.New(xrand.Mix64(seed ^ uint64(conn+1)*0x9e3779b97f4a7c15))
	z := xrand.NewZipf(r, theta, keys)
	ops := make([]serveOp, n)
	for i := range ops {
		ops[i] = serveOp{
			Tenant: uint8(r.Intn(tenants)),
			// Scatter ranks so neighbouring connections' hot keys are the
			// same keys (they share the cache) but not adjacent ids.
			Key: uint32(uint64(z.Next()) * 2654435761 % uint64(keys)),
			Set: setFrac > 0 && r.Bool(setFrac),
		}
	}
	return ops
}

// genEngineStream scripts n accesses for one engine worker over three
// partitions whose footprints are lines, 2/3·lines and 1/3·lines (2× the
// capacity in total, matching the 3:2:1 initial targets), each zipf(0.9).
func genEngineStream(seed uint64, worker, n, lines int) []access {
	r := xrand.New(xrand.Mix64(seed ^ uint64(worker+1)*0xd1342543de82ef95))
	spans := []int{lines, lines * 2 / 3, lines / 3}
	zs := make([]*xrand.Zipf, len(spans))
	for p, s := range spans {
		zs[p] = xrand.NewZipf(r, 0.9, s)
	}
	out := make([]access, n)
	for i := range out {
		p := r.Intn(len(spans))
		// Mixed: raw low-entropy addresses sit in the H3 index null space.
		out[i] = access{Addr: xrand.Mix64(uint64(p)<<40 | uint64(zs[p].Next())), Part: p}
	}
	return out
}

// simCoarseParts is the partition count of sim-fs-coarse-32p: the eight
// benchmark profiles, four threads each.
const simCoarseParts = 32

// simCoarseTargets gives every fourth partition (one thread of each profile)
// 2560 lines and the rest 512: 8×2560 + 24×512 = 32768.
func simCoarseTargets() []int {
	t := make([]int, simCoarseParts)
	for i := range t {
		t[i] = 512
		if i%4 == 0 {
			t[i] = 2560
		}
	}
	return t
}

// genSimCoarse interleaves the 32 profile streams uniformly at random.
func genSimCoarse(seed uint64, n int) []access {
	profs := workload.Profiles()
	gens := make([]trace.Generator, simCoarseParts)
	for i := range gens {
		gens[i] = profs[i%len(profs)].Shrunk(8).NewGenerator(seed, i)
	}
	r := xrand.New(xrand.Mix64(seed ^ 0x32))
	out := make([]access, n)
	for i := range out {
		p := r.Intn(simCoarseParts)
		out[i] = access{Addr: gens[p].Next().Addr, Part: p}
	}
	return out
}

// genSimZ52 scripts the scan-storm pair (examples/scenarios/scan-storm.yaml
// scaled to the cache): partition 0 is the victim (2/3 of the accesses,
// 90% zipf(1.1) over 3/4·lines + 10% uniform over 1/4·lines), partition 1
// the scanner (zipf(0.8) over lines/2, turning into a pure sequential scan
// over 4·lines during [40%,60%) and [80%,90%) of the measured part).
func genSimZ52(seed uint64, warm, n, lines int) []access {
	r := xrand.New(xrand.Mix64(seed ^ 0x52))
	hot := xrand.NewZipf(r, 1.1, lines*3/4)
	calm := xrand.NewZipf(r, 0.8, lines/2)
	scanLines := uint64(4 * lines)
	var scanPos uint64
	out := make([]access, n)
	for i := range out {
		if r.Intn(3) < 2 {
			var a uint64
			if r.Bool(0.9) {
				a = uint64(hot.Next()) * 2654435761 % uint64(lines*3/4)
			} else {
				a = 1<<32 | r.Uint64n(uint64(lines/4))
			}
			out[i] = access{Addr: xrand.Mix64(a), Part: 0}
			continue
		}
		frac := float64(i-warm) / float64(n-warm)
		if i >= warm && (frac >= 0.4 && frac < 0.6 || frac >= 0.8 && frac < 0.9) {
			out[i] = access{Addr: xrand.Mix64(3<<32 | scanPos), Part: 1}
			scanPos = (scanPos + 1) % scanLines
		} else {
			out[i] = access{Addr: xrand.Mix64(2<<32 | uint64(calm.Next())), Part: 1}
		}
	}
	return out
}
