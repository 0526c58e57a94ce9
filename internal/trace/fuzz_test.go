package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// corpusTrace builds a small deterministic trace for seed inputs.
func corpusTrace() *Trace {
	return &Trace{Accesses: []Access{
		{Addr: 0x1000, Gap: 3, Kind: Read},
		{Addr: 0x2000, Gap: 0, Kind: Write},
		{Addr: 0x1000, Gap: 17, Kind: Read},
	}}
}

// FuzzReadFrom exercises the trace decoder against arbitrary byte streams:
// it must never panic or over-allocate, and anything it accepts must
// round-trip through the current encoder byte-identically.
func FuzzReadFrom(f *testing.F) {
	valid := encodeTrace(f, corpusTrace())

	f.Add(valid) // well-formed
	f.Add(valid[:len(valid)-6])
	f.Add(valid[:7]) // truncated header
	f.Add([]byte("NOPEnope"))

	// Implausible record count.
	huge := append([]byte{}, valid[:4]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	f.Add(huge)

	// Plausible-but-lying count over a short body: exercises the bounded
	// allocation path.
	lying := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(lying[4:12], 1<<31)
	f.Add(lying)

	// Corrupt CRC footer.
	badcrc := append([]byte{}, valid...)
	badcrc[len(badcrc)-1] ^= 0x5a
	f.Add(badcrc)

	// Corrupt payload byte under an intact footer.
	badbody := append([]byte{}, valid...)
	badbody[14] ^= 0x01
	f.Add(badbody)

	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		n, err := tr.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n > int64(len(data)) {
			t.Fatalf("ReadFrom read %d of %d bytes", n, len(data))
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode of accepted trace: %v", err)
		}
		var back Trace
		if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-decode of accepted trace: %v", err)
		}
		if len(back.Accesses) != len(tr.Accesses) {
			t.Fatalf("round trip length %d, want %d", len(back.Accesses), len(tr.Accesses))
		}
		for i := range tr.Accesses {
			if back.Accesses[i] != tr.Accesses[i] {
				t.Fatalf("round trip record %d: %+v != %+v", i, back.Accesses[i], tr.Accesses[i])
			}
		}
	})
}
