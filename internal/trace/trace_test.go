package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"fscache/internal/xrand"
)

func mk(addrs ...uint64) *Trace {
	t := &Trace{Accesses: make([]Access, len(addrs))}
	for i, a := range addrs {
		t.Accesses[i] = Access{Addr: a, Gap: uint32(i)}
	}
	return t
}

func TestComputeNextUse(t *testing.T) {
	tr := mk(1, 2, 1, 3, 2, 1)
	tr.ComputeNextUse()
	want := []int64{2, 4, 5, NoNextUse, NoNextUse, NoNextUse}
	for i, w := range want {
		if tr.NextUse[i] != w {
			t.Fatalf("NextUse[%d] = %d, want %d", i, tr.NextUse[i], w)
		}
	}
}

func TestComputeNextUseEmpty(t *testing.T) {
	tr := &Trace{}
	tr.ComputeNextUse()
	if len(tr.NextUse) != 0 {
		t.Fatal("NextUse of empty trace not empty")
	}
}

// Property: NextUse[i] always points at a later access of the same address,
// and no access of the same address lies strictly between.
func TestQuickNextUseCorrect(t *testing.T) {
	f := func(raw []uint8) bool {
		tr := &Trace{Accesses: make([]Access, len(raw))}
		for i, a := range raw {
			tr.Accesses[i].Addr = uint64(a % 16) // small space to force reuse
		}
		tr.ComputeNextUse()
		for i := range tr.Accesses {
			nu := tr.NextUse[i]
			if nu == NoNextUse {
				for j := i + 1; j < len(raw); j++ {
					if tr.Accesses[j].Addr == tr.Accesses[i].Addr {
						return false
					}
				}
				continue
			}
			if nu <= int64(i) || nu >= int64(len(raw)) {
				return false
			}
			if tr.Accesses[nu].Addr != tr.Accesses[i].Addr {
				return false
			}
			for j := i + 1; j < int(nu); j++ {
				if tr.Accesses[j].Addr == tr.Accesses[i].Addr {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInstructionsAndFootprint(t *testing.T) {
	tr := mk(10, 20, 10)
	// Gaps are 0,1,2; each access adds 1 instruction.
	if got := tr.Instructions(); got != 6 {
		t.Fatalf("Instructions = %d, want 6", got)
	}
	if got := tr.Footprint(); got != 2 {
		t.Fatalf("Footprint = %d, want 2", got)
	}
}

func TestCollect(t *testing.T) {
	g := NewSliceGenerator([]Access{{Addr: 1}, {Addr: 2}})
	tr := Collect(g, 5)
	want := []uint64{1, 2, 1, 2, 1}
	for i, w := range want {
		if tr.Accesses[i].Addr != w {
			t.Fatalf("Collect[%d] = %d, want %d", i, tr.Accesses[i].Addr, w)
		}
	}
}

func TestSliceGeneratorEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSliceGenerator(nil)
}

func TestFileRoundTrip(t *testing.T) {
	rng := xrand.New(5)
	tr := &Trace{Accesses: make([]Access, 1000)}
	for i := range tr.Accesses {
		tr.Accesses[i] = Access{
			Addr: rng.Uint64(),
			Gap:  rng.Uint32() % 500,
			Kind: Kind(rng.Intn(2)),
		}
	}
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned %d, wrote %d", n, buf.Len())
	}
	var back Trace
	if _, err := back.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if len(back.Accesses) != len(tr.Accesses) {
		t.Fatalf("round trip length %d, want %d", len(back.Accesses), len(tr.Accesses))
	}
	for i := range tr.Accesses {
		if back.Accesses[i] != tr.Accesses[i] {
			t.Fatalf("record %d: %+v != %+v", i, back.Accesses[i], tr.Accesses[i])
		}
	}
}

func TestFileEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if _, err := (&Trace{}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back Trace
	if _, err := back.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if len(back.Accesses) != 0 {
		t.Fatal("empty round trip not empty")
	}
}

// TestFileBadMagic also covers the checksum-less FST1 format, which is no
// longer read: its bytes are not a trace file.
func TestFileBadMagic(t *testing.T) {
	for _, m := range []string{"NOPE", "FST1"} {
		var back Trace
		_, err := back.ReadFrom(bytes.NewReader([]byte(m + "\x00\x00\x00\x00\x00\x00\x00\x00")))
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: err = %v, want ErrBadMagic", m, err)
		}
	}
}

func TestFileTruncated(t *testing.T) {
	tr := mk(1, 2, 3)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var back Trace
	if _, err := back.ReadFrom(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated read did not error")
	}
}

func TestFileImplausibleCount(t *testing.T) {
	raw := append([]byte{}, magic[:]...)
	raw = append(raw, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	var back Trace
	if _, err := back.ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("implausible count did not error")
	}
}

func TestFileTruncatedHeaderContext(t *testing.T) {
	for _, raw := range [][]byte{{}, []byte("FS"), []byte("FST2"), []byte("FST2\x03\x00\x00")} {
		var back Trace
		_, err := back.ReadFrom(bytes.NewReader(raw))
		if err == nil {
			t.Fatalf("header prefix %q accepted", raw)
		}
		if !strings.Contains(err.Error(), "trace: truncated header") {
			t.Errorf("header prefix %q: err = %v, want truncated-header context", raw, err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Errorf("header prefix %q: err = %v does not unwrap to an io error", raw, err)
		}
	}
}

func TestFileCRCDetectsCorruption(t *testing.T) {
	tr := mk(1, 2, 3)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if got := string(raw[:4]); got != "FST2" {
		t.Fatalf("WriteTo magic = %q, want FST2", got)
	}
	// Every single-byte corruption of the payload or footer must be caught.
	for i := 12; i < len(raw); i++ {
		bad := append([]byte{}, raw...)
		bad[i] ^= 0x40
		var back Trace
		if _, err := back.ReadFrom(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
	bad := append([]byte{}, raw...)
	bad[len(bad)-1] ^= 0x01
	var back Trace
	_, err := back.ReadFrom(bytes.NewReader(bad))
	if !errors.Is(err, ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
}

func TestFileLyingCountNoOOM(t *testing.T) {
	// A header claiming 2^31 records over a 3-record body must error out
	// without allocating anywhere near 2^31 records.
	tr := mk(1, 2, 3)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[4:12], 1<<31)
	var back Trace
	if _, err := back.ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("lying count accepted")
	}
	if cap(back.Accesses) > 1<<17 {
		t.Fatalf("lying count preallocated %d records", cap(back.Accesses))
	}
}

func BenchmarkComputeNextUse(b *testing.B) {
	rng := xrand.New(1)
	tr := &Trace{Accesses: make([]Access, 100000)}
	for i := range tr.Accesses {
		tr.Accesses[i].Addr = rng.Uint64() % 8192
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ComputeNextUse()
	}
}
