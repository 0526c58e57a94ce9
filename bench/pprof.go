package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A reader for the CPU profiles runtime/pprof writes — gzip around the
// profile.proto message — kept to the fields the CPU budget needs, so the
// benchmark adds no module dependency. Each sample's stack is walked from
// the leaf towards the root and the sample goes to the bucket of the first
// frame that classifyFrame recognises; what no frame claims is cpu.other.

var errProfile = errors.New("pprof: malformed profile")

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProfile
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProfile
}

// next returns the next field: its number, and either its varint value or,
// for a length-delimited field, its bytes. Fixed-width fields are skipped
// over and returned as neither.
func (r *pbReader) next() (num int, val uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = r.varint()
	case 1:
		err = r.skip(8)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errProfile
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		err = r.skip(4)
	default:
		err = errProfile
	}
	return num, val, data, err
}

func (r *pbReader) skip(n int) error {
	if n > len(r.b) {
		return errProfile
	}
	r.b = r.b[n:]
	return nil
}

// uints reads a repeated integer field occurrence: packed when data is
// non-nil, a single value otherwise.
func uints(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// frame is one function on a sampled stack.
type frame struct {
	Func string
	File string
}

// stackSample is one distinct sampled stack: frames leaf first, how many
// times the profiler saw it, and its weight.
type stackSample struct {
	Frames []frame
	Count  int64
	Value  int64
}

// parseProfile decodes a gzipped profile.proto into stack samples weighted
// by the profile's last sample type (cpu nanoseconds for a CPU profile).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	type function struct{ name, file uint64 }
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id → function ids, innermost first
		functions = map[uint64]function{}
		strs      []string
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		num, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			m := pbReader{data}
			for len(m.b) > 0 {
				n, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, v, d)
				case 2:
					s.vals, err = uints(s.vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				n, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbReader{d}
					for len(l.b) > 0 {
						ln, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locations[id] = fns
		case 5: // Function
			var id uint64
			var f function
			m := pbReader{data}
			for len(m.b) > 0 {
				n, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
			}
			functions[id] = f
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{Count: int64(s.vals[0]), Value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fid := range locations[loc] {
				f := functions[fid]
				ss.Frames = append(ss.Frames, frame{Func: str(f.name), File: str(f.file)})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// prefixRule sends a frame whose function name starts with any of the
// prefixes to the bucket.
type prefixRule struct {
	bucket   string
	prefixes []string
}

// runtimeRules classify Go runtime and standard-library frames. Only
// anchors are listed: a leaf such as runtime.memmove or runtime.futex
// matches nothing and the walk moves on to its caller, which is what says
// whose work it was.
var runtimeRules = []prefixRule{
	{"cpu.gc_malloc", []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
		"runtime.gcDrain", "runtime.gcStart", "runtime.gcMark", "runtime.gcSweep",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.scanobject", "runtime.markroot",
		"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.wbBufFlush",
		"runtime.gcWriteBarrier",
	}},
	{"cpu.net_syscall", []string{
		"syscall.", "internal/poll.", "net.", "runtime.netpoll", "runtime.epoll",
		"internal/runtime/syscall.", "runtime/internal/syscall.", "runtime.entersyscall",
		"runtime.exitsyscall",
	}},
	{"cpu.lock", []string{
		"sync.(*Mutex)", "sync.(*RWMutex)", "internal/sync.", "runtime.lock", "runtime.unlock",
		"runtime.semacquire", "runtime.semrelease", "sync.runtime_Sem",
	}},
	{"cpu.sched_chan", []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.mcall", "runtime.chansend", "runtime.chanrecv",
		"runtime.selectgo", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mstart",
		"runtime.resetspinning", "runtime.stealWork", "runtime.runqgrab", "runtime.execute",
		"runtime.gosched", "runtime.goschedImpl", "runtime.notesleep", "runtime.notewakeup",
		"runtime.notetsleep", "runtime.sysmon", "runtime.checkTimers", "runtime.runtimer",
		"runtime.(*timer", "runtime.morestack", "runtime.newstack", "time.Sleep",
	}},
}

const repoPrefix = "fscache/internal/"

// serverFiles splits package server's CPU by source file.
var serverFiles = map[string]string{
	"wire.go":      "cpu.server_wire",
	"admission.go": "cpu.server_admission",
	"clock.go":     "cpu.server_admission",
	"store.go":     "cpu.server_store",
	"batch.go":     "cpu.server_batch",
}

// repoPackages maps a package under internal/ to its bucket.
var repoPackages = map[string]string{
	"shardcache": "cpu.shardcache", "core": "cpu.core", "futility": "cpu.futility",
	"ost": "cpu.ost", "cachearray": "cpu.cachearray", "hashing": "cpu.hashing",
	"alloc": "cpu.alloc", "stats": "cpu.stats",
}

// classifyFrame names the bucket a single frame belongs to, or "" when the
// frame says nothing about ownership.
func classifyFrame(f frame) string {
	if rest, ok := strings.CutPrefix(f.Func, repoPrefix); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if pkg == "server" {
			if b, ok := serverFiles[path.Base(f.File)]; ok {
				return b
			}
			return "cpu.server_conn"
		}
		return repoPackages[pkg]
	}
	// The benchmark's own package is "main" in its binary and carries its
	// import path in its test binary.
	if strings.HasPrefix(f.Func, "main.") || strings.HasPrefix(f.Func, "fscache/bench.") {
		return "cpu.loadgen"
	}
	for _, rule := range runtimeRules {
		for _, p := range rule.prefixes {
			if strings.HasPrefix(f.Func, p) {
				return rule.bucket
			}
		}
	}
	return ""
}

// cpuBudget returns every cpu.* bucket's share of the profile's samples.
// The shares sum to 1; a profile with no samples is all cpu.other.
func cpuBudget(samples []stackSample) map[string]float64 {
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total float64
	for _, s := range samples {
		bucket := "cpu.other"
		for _, f := range s.Frames {
			if b := classifyFrame(f); b != "" {
				bucket = b
				break
			}
		}
		shares[bucket] += float64(s.Value)
		total += float64(s.Value)
	}
	if total <= 0 {
		shares["cpu.other"] = 1
		return shares
	}
	for b := range shares {
		shares[b] /= total
	}
	return shares
}
