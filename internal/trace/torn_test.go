package trace

// Torn-write robustness: a trace file cut at ANY byte offset must fail with
// a staged, descriptive error — never a panic, never a silently short trace.
// The sweep is exhaustive over offsets (and over single-bit flips for the
// checksummed format) because the interesting bugs live exactly at the
// stage boundaries: magic/count seam, record seam, footer seam.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fscache/internal/xrand"
)

// tornTrace builds a small seeded trace whose encoded form exercises every
// decoder stage: header, several records, and (FST2) the checksum footer.
func tornTrace() *Trace {
	rng := xrand.New(0x70a7)
	tr := &Trace{Accesses: make([]Access, 9)}
	for i := range tr.Accesses {
		tr.Accesses[i] = Access{
			Addr: rng.Uint64(),
			Gap:  uint32(rng.Intn(1 << 20)),
			Kind: Kind(rng.Intn(2)),
		}
	}
	return tr
}

// encodeTrace writes tr as FST2 or, with legacy, as the FST1 bytes a
// pre-checksum writer produced: the FST2 encoding with its magic rewritten
// to "FST1" and its CRC footer dropped.
func encodeTrace(t testing.TB, tr *Trace, legacy bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	raw := buf.Bytes()
	if legacy {
		copy(raw, magicV1[:])
		raw = raw[:len(raw)-4]
	}
	return raw
}

// TestFileTruncationEveryOffset cuts both trace formats at every byte
// offset and requires the staged error for the stage the cut lands in.
func TestFileTruncationEveryOffset(t *testing.T) {
	tr := tornTrace()
	const headerLen = 4 + 8 // magic + count
	recordsEnd := headerLen + recordSize*len(tr.Accesses)
	for _, legacy := range []bool{false, true} {
		full := encodeTrace(t, tr, legacy)
		wantLen := recordsEnd
		if !legacy {
			wantLen += 4 // CRC footer
		}
		if len(full) != wantLen {
			t.Fatalf("legacy=%v: encoded %d bytes, want %d", legacy, len(full), wantLen)
		}
		for cut := 0; cut < len(full); cut++ {
			var got Trace
			_, err := got.ReadFrom(bytes.NewReader(full[:cut]))
			if err == nil {
				t.Fatalf("legacy=%v cut=%d: truncated file decoded without error", legacy, cut)
			}
			var wantStage string
			switch {
			case cut < headerLen:
				wantStage = "truncated header"
			case cut < recordsEnd:
				wantStage = "truncated at record"
			default:
				wantStage = "truncated checksum footer"
			}
			if !strings.Contains(err.Error(), wantStage) {
				t.Fatalf("legacy=%v cut=%d: error %q does not name stage %q", legacy, cut, err, wantStage)
			}
		}
		// The un-cut file must still decode to the original trace.
		var got Trace
		if _, err := got.ReadFrom(bytes.NewReader(full)); err != nil {
			t.Fatalf("legacy=%v: full file failed to decode: %v", legacy, err)
		}
		if len(got.Accesses) != len(tr.Accesses) {
			t.Fatalf("legacy=%v: decoded %d records, want %d", legacy, len(got.Accesses), len(tr.Accesses))
		}
		for i, a := range got.Accesses {
			if a != tr.Accesses[i] {
				t.Fatalf("legacy=%v: record %d = %+v, want %+v", legacy, i, a, tr.Accesses[i])
			}
		}
	}
}

// TestFileBitFlipEveryBit flips every single bit of a complete FST2 file and
// requires an error each time: magic flips must read as not-a-trace-file,
// record and footer flips must fail the checksum, and count flips must fail
// one way or another (implausible count, missing records, or CRC mismatch)
// but never decode cleanly. A single-bit flip cannot turn "FST2" into the
// lenient "FST1" magic (the version bytes differ in two bits), so the sweep
// is airtight for the strict format.
func TestFileBitFlipEveryBit(t *testing.T) {
	tr := tornTrace()
	full := encodeTrace(t, tr, false)
	const headerLen = 4 + 8
	recordsEnd := headerLen + recordSize*len(tr.Accesses)
	for off := 0; off < len(full); off++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), full...)
			flipped[off] ^= 1 << bit
			var got Trace
			_, err := got.ReadFrom(bytes.NewReader(flipped))
			if err == nil {
				t.Fatalf("off=%d bit=%d: corrupt file decoded without error", off, bit)
			}
			switch {
			case off < 4:
				if !errors.Is(err, ErrBadMagic) {
					t.Fatalf("off=%d bit=%d: magic flip got %v, want ErrBadMagic", off, bit, err)
				}
			case off >= headerLen && off < recordsEnd:
				if !errors.Is(err, ErrBadCRC) {
					t.Fatalf("off=%d bit=%d: record flip got %v, want ErrBadCRC", off, bit, err)
				}
			case off >= recordsEnd:
				if !errors.Is(err, ErrBadCRC) {
					t.Fatalf("off=%d bit=%d: footer flip got %v, want ErrBadCRC", off, bit, err)
				}
				// Count-field flips (4 <= off < headerLen) may surface as any
				// staged error depending on which way the count moved; the
				// err != nil check above is the contract.
			}
		}
	}
}

// TestFileLegacyBitFlipSilent documents the FST1 trade-off the FST2 footer
// exists to fix: a bit flip inside a legacy record body decodes cleanly
// (there is no checksum to catch it), which is exactly why WriteTo writes
// only the checksummed format.
func TestFileLegacyBitFlipSilent(t *testing.T) {
	tr := tornTrace()
	full := encodeTrace(t, tr, true)
	flipped := append([]byte(nil), full...)
	flipped[4+8+2] ^= 0x40 // inside the first record's addr field
	var got Trace
	if _, err := got.ReadFrom(bytes.NewReader(flipped)); err != nil {
		t.Fatalf("legacy flip unexpectedly detected: %v", err)
	}
	if got.Accesses[0].Addr == tr.Accesses[0].Addr {
		t.Fatal("flip did not land in the first record's addr")
	}
}
