package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary trace file format (little endian):
//
//	magic   [4]byte  "FST2"
//	count   uint64   number of access records
//	records count × { addr uint64, gap uint32, kind uint8 }
//	crc     uint32   IEEE CRC-32 of magic+count+records
//
// The format is deliberately dumb — fixed-width fields, no compression — so
// that cmd/fstrace output is easy to inspect and third-party tools can parse
// it with a ten-line script.
//
// The checksum footer makes bit rot, torn writes and truncated downloads
// fail with ErrBadCRC instead of silently feeding garbage addresses into a
// simulation.

var magic = [4]byte{'F', 'S', 'T', '2'}

// ErrBadMagic reports a file that is not a trace file.
var ErrBadMagic = errors.New("trace: bad magic, not a trace file")

// ErrBadCRC reports a trace file whose payload does not match its checksum
// footer.
var ErrBadCRC = errors.New("trace: checksum mismatch, corrupt trace file")

const recordSize = 8 + 4 + 1

// allocChunk bounds how many records are allocated ahead of what has
// actually been read, so a corrupt or hostile header cannot make ReadFrom
// allocate tens of gigabytes before the first record read fails.
const allocChunk = 1 << 16

// WriteTo serializes the trace to w in the FST2 format. NextUse is not
// persisted; it is cheap to recompute.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	sum := crc32.NewIEEE()
	var written int64
	// write sends p to both the file and the running checksum; bufio and
	// crc32 writes cannot fail short, so one error check covers both.
	write := func(p []byte) error {
		n, err := bw.Write(p)
		written += int64(n)
		if err != nil {
			return err
		}
		sum.Write(p)
		return nil
	}
	if err := write(magic[:]); err != nil {
		return written, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(t.Accesses)))
	if err := write(hdr[:]); err != nil {
		return written, err
	}
	var rec [recordSize]byte
	for i := range t.Accesses {
		a := &t.Accesses[i]
		binary.LittleEndian.PutUint64(rec[0:8], a.Addr)
		binary.LittleEndian.PutUint32(rec[8:12], a.Gap)
		rec[12] = byte(a.Kind)
		if err := write(rec[:]); err != nil {
			return written, err
		}
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], sum.Sum32())
	if n, err := bw.Write(foot[:]); err != nil {
		return written + int64(n), err
	}
	written += 4
	if err := bw.Flush(); err != nil {
		return written, err
	}
	return written, nil
}

// ReadFrom deserializes a trace from r, replacing t's contents. The payload
// is verified against its CRC-32 footer (ErrBadCRC on mismatch).
func (t *Trace) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	sum := crc32.NewIEEE()
	var read int64
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return read, fmt.Errorf("trace: truncated header: %w", err)
	}
	read += 4
	if m != magic {
		return read, ErrBadMagic
	}
	sum.Write(m[:])
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return read, fmt.Errorf("trace: truncated header: %w", err)
	}
	read += 8
	sum.Write(hdr[:])
	count := binary.LittleEndian.Uint64(hdr[:])
	const maxRecords = 1 << 32
	if count > maxRecords {
		return read, fmt.Errorf("trace: implausible record count %d", count)
	}
	// Cap the header-trusted allocation: a corrupt count must fail at the
	// first missing record, not OOM up front. Beyond the cap, append's
	// geometric growth keeps total copying linear.
	capHint := count
	if capHint > allocChunk {
		capHint = allocChunk
	}
	t.Accesses = make([]Access, 0, capHint)
	t.NextUse = nil
	var rec [recordSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return read, fmt.Errorf("trace: truncated at record %d: %w", i, err)
		}
		read += recordSize
		sum.Write(rec[:])
		t.Accesses = append(t.Accesses, Access{
			Addr: binary.LittleEndian.Uint64(rec[0:8]),
			Gap:  binary.LittleEndian.Uint32(rec[8:12]),
			Kind: Kind(rec[12]),
		})
	}
	var foot [4]byte
	if _, err := io.ReadFull(br, foot[:]); err != nil {
		return read, fmt.Errorf("trace: truncated checksum footer: %w", err)
	}
	read += 4
	if want := binary.LittleEndian.Uint32(foot[:]); want != sum.Sum32() {
		return read, fmt.Errorf("%w (footer %08x, payload %08x)", ErrBadCRC, want, sum.Sum32())
	}
	return read, nil
}
