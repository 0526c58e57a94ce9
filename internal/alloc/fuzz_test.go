package alloc

import (
	"testing"

	"fscache/internal/xrand"
)

// fuzzKeys is the address population FuzzProfiler draws from. Against tables
// of 2 to 16 positions it makes nearly every address share its home with
// others, so chains form, run past the end of the table and are shifted back
// across it.
const fuzzKeys = 48

// fuzzDepths are the tag counts a script's first byte picks from: tables of
// 2, 4, 8, 8, 16 and 16 positions, full to a half or a little under.
var fuzzDepths = [...]int{1, 2, 3, 4, 5, 8}

// runProfilerScript interprets data as a profiler configuration (one byte:
// depth, and sampling shift 0 or 2) followed by one reference per byte: 0xff
// is a Decay, anything else picks one of fuzzKeys sampled addresses. After
// every step the profiler is compared with the naive stack (counters,
// histogram, and which addresses are tracked, read through a map of the
// stack) and audited by CheckInvariants. It returns how many table entries a
// removal moved back across the end of the table.
func runProfilerScript(t testing.TB, data []byte) (wrapShifts int) {
	if len(data) == 0 {
		return 0
	}
	maxTags := fuzzDepths[int(data[0]&0x7f)%len(fuzzDepths)]
	shift := uint(data[0] >> 7 * 2)
	p := NewProfiler(maxTags, shift, 0xf022)
	o := &stackOracle{hist: make([]uint64, maxTags)}
	keys := make([]uint64, 0, fuzzKeys)
	for a := uint64(0); len(keys) < fuzzKeys; a++ {
		if p.Sampled(a) {
			keys = append(keys, a)
		}
	}
	was := make([]int32, maxTags) // each tag's table position before the step
	for step, b := range data[1:] {
		for tag := range was {
			was[tag] = -1
		}
		for pos := range int32(p.table.Len()) {
			if e := p.table.At(pos); e != 0 {
				was[e-1] = pos
			}
		}
		reused := int32(-1) // the tag this step gives to a new address, if any
		if b == 0xff {
			p.Decay()
			o.decay()
		} else {
			a := keys[int(b)%fuzzKeys]
			if _, tag := p.probe(a, p.hash(a)); tag < 0 && int(p.idx.Live()) == maxTags {
				reused = p.idx.Worst()
			}
			if !p.Touch(a) {
				t.Fatalf("step %d: address %#x is in the sample and was not tracked", step, a)
			}
			o.touch(a, true)
		}
		// Every other entry stays put or moves back toward its home: one that
		// went up in position was shifted back the long way round.
		for pos := range int32(p.table.Len()) {
			if e := p.table.At(pos); e != 0 && e-1 != reused && was[e-1] >= 0 && pos > was[e-1] {
				wrapShifts++
			}
		}
		o.check(t, p, 0, step)
		tracked := o.tracked()
		for _, a := range keys {
			if _, tag := p.probe(a, p.hash(a)); (tag >= 0) != tracked[a] {
				t.Fatalf("step %d: address %#x found under tag %d, stack tracks it: %v", step, a, tag, tracked[a])
			}
		}
	}
	return wrapShifts
}

// fuzzProfilerSeeds are FuzzProfiler's starting scripts: every depth at both
// shifts under one random reference stream with a few decays.
func fuzzProfilerSeeds() [][]byte {
	rng := xrand.New(0x5eed)
	var seeds [][]byte
	for cfg := 0; cfg < 2*len(fuzzDepths); cfg++ {
		script := []byte{byte(cfg%len(fuzzDepths) | cfg/len(fuzzDepths)<<7)}
		for i := 0; i < 400; i++ {
			b := byte(rng.Intn(fuzzKeys))
			if rng.Intn(100) == 0 {
				b = 0xff
			}
			script = append(script, b)
		}
		seeds = append(seeds, script)
	}
	return seeds
}

// The seeds must reach what FuzzProfiler is there to cover before any
// mutation: removals that shift entries back across the end of the table.
func TestFuzzProfilerSeedsWrap(t *testing.T) {
	wraps := 0
	for _, s := range fuzzProfilerSeeds() {
		wraps += runProfilerScript(t, s)
	}
	if wraps < 10 {
		t.Fatalf("seeds shifted an entry back across the table end %d times, want it exercised", wraps)
	}
}

// FuzzProfiler drives a small profiler from a byte stream over a colliding
// address population and checks every step against the naive stack (see
// runProfilerScript).
func FuzzProfiler(f *testing.F) {
	for _, s := range fuzzProfilerSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip("long scripts only repeat what short ones cover")
		}
		runProfilerScript(t, data)
	})
}
