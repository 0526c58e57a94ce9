// Package server is the network front end over the striped concurrent
// engine (internal/shardcache): a length-prefixed TCP key-value cache
// where each tenant maps to one Futility-Scaling partition and a real
// byte-value store sits behind the simulated replacement decisions.
//
// The package's headline is not the protocol but the overload model
// (DESIGN.md §14): per-tenant token-bucket admission with SLO classes,
// wire-propagated per-request deadlines checked once the work is done,
// one goroutine per connection that writes its own batched responses,
// graceful degradation (best-effort tenants shed first, guaranteed tenants
// fall back to a stale fast path before erroring), slow-client protection
// by a bounded write, per-connection panic isolation, and a drain-based
// graceful shutdown.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire format (little endian), one frame per request or response:
//
//	length  uint32   payload byte count (not including this prefix)
//	payload:
//	  version  uint8    wire version, currently 1
//	  op/status uint8   request opcode or response status
//	  tenant   uint8    partition index the request bills to
//	  flags    uint8    response: FlagStale etc.; request: reserved, 0
//	  seq      uint32   request sequence number, echoed in the response
//	  deadline uint32   request only: relative deadline in microseconds
//	                    from server receipt (0 = none); absent in responses
//	  keylen   uint16   request only: key byte count
//	  key      keylen bytes
//	  value    remaining bytes (set value / get result / stats payload)
//
// The length prefix is bounded by MaxFrame on both sides: a corrupt or
// hostile prefix produces ErrFrameTooBig and a connection close, never a
// large allocation. Responses may be pipelined; seq is how clients match
// them back up (and how reordering faults are detected).

// Version is the wire protocol version.
const Version = 1

// MaxFrame bounds the payload length either side will read or write. It
// caps the per-frame allocation a corrupt length prefix can force.
const MaxFrame = 1 << 20

// lenPrefixSize is the byte width of the frame length prefix.
const lenPrefixSize = 4

// reqHeaderSize is the fixed request payload header before the key bytes.
const reqHeaderSize = 1 + 1 + 1 + 1 + 4 + 4 + 2

// respHeaderSize is the fixed response payload header before the value.
const respHeaderSize = 1 + 1 + 1 + 1 + 4

// Op is a request opcode.
type Op uint8

// Request opcodes.
const (
	// OpGet reads a key's value.
	OpGet Op = 1
	// OpSet stores a key's value.
	OpSet Op = 2
	// OpDel drops a key's bytes (the simulated line ages out on its own).
	OpDel Op = 3
	// OpPing is a liveness no-op that bypasses admission control.
	OpPing Op = 4
	// OpStats returns the server stats snapshot as JSON (bypasses
	// admission control; it is the observability path).
	OpStats Op = 5
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDel:
		return "del"
	case OpPing:
		return "ping"
	case OpStats:
		return "stats"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is a response status code.
type Status uint8

// Response statuses, ordered roughly by the degradation ladder.
const (
	// StatusOK is a successful operation.
	StatusOK Status = 0
	// StatusNotFound is a GET/DEL for a key with no stored bytes.
	StatusNotFound Status = 1
	// StatusShed reports the request was dropped by admission control or
	// overload shedding; the client may retry after backoff.
	StatusShed Status = 2
	// StatusDeadline reports the request's wire deadline expired before
	// the server finished it; retrying is the client's call.
	StatusDeadline Status = 3
	// StatusOverload reports the hard in-flight limit was reached; even
	// guaranteed-class requests are rejected at this rung.
	StatusOverload Status = 4
	// StatusDraining reports the server is shutting down and no longer
	// accepts new work on this connection.
	StatusDraining Status = 5
	// StatusBadRequest reports an unparseable or semantically invalid
	// request payload (unknown op, bad tenant, oversized key).
	StatusBadRequest Status = 6
	// StatusError is an internal server failure.
	StatusError Status = 7
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusShed:
		return "shed"
	case StatusDeadline:
		return "deadline-exceeded"
	case StatusOverload:
		return "overload"
	case StatusDraining:
		return "draining"
	case StatusBadRequest:
		return "bad-request"
	case StatusError:
		return "error"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Response flag bits.
const (
	// FlagStale marks a GET answered from the degraded fast path: the
	// bytes came straight from the store without driving the replacement
	// engine (no recency update, possibly mid-eviction), traded for not
	// touching any engine lock under overload.
	FlagStale uint8 = 1 << 0
	// FlagHit marks a GET whose simulated access hit (diagnostics; a GET
	// can return bytes on a simulated miss when the engine re-installed).
	FlagHit uint8 = 1 << 1
)

// Request is one decoded request frame.
type Request struct {
	Op         Op
	Tenant     uint8
	Seq        uint32
	DeadlineUS uint32 // relative deadline, microseconds; 0 = none
	Key        []byte // aliases the frame buffer; copy to retain
	Value      []byte // aliases the frame buffer; copy to retain
}

// Response is one decoded response frame.
type Response struct {
	Status Status
	Tenant uint8
	Flags  uint8
	Seq    uint32
	Value  []byte // aliases the frame buffer; copy to retain
}

// Wire codec errors.
var (
	// ErrFrameTooBig reports a length prefix exceeding MaxFrame; the
	// stream is unrecoverable (the next framing boundary is unknown) and
	// the connection must be closed.
	ErrFrameTooBig = errors.New("server: frame length exceeds MaxFrame")
	// ErrShortFrame reports a payload too short for its fixed header or
	// its declared key length.
	ErrShortFrame = errors.New("server: frame payload shorter than header")
	// ErrBadVersion reports an unsupported wire version byte.
	ErrBadVersion = errors.New("server: unsupported wire version")
)

// AppendRequest appends req's frame (length prefix included) to buf and
// returns the extended slice. It panics if key+value exceed MaxFrame
// (caller bug, not input corruption).
func AppendRequest(buf []byte, req *Request) []byte {
	n := reqHeaderSize + len(req.Key) + len(req.Value)
	if n > MaxFrame {
		panic("server: request frame exceeds MaxFrame")
	}
	if len(req.Key) > 0xFFFF {
		panic("server: request key exceeds 64 KiB")
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, Version, uint8(req.Op), req.Tenant, 0)
	buf = binary.LittleEndian.AppendUint32(buf, req.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, req.DeadlineUS)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Key)))
	buf = append(buf, req.Key...)
	buf = append(buf, req.Value...)
	return buf
}

// ParseRequest decodes a request payload (no length prefix). Key and Value
// alias payload.
func ParseRequest(payload []byte) (Request, error) {
	var req Request
	if len(payload) < reqHeaderSize {
		return req, ErrShortFrame
	}
	if payload[0] != Version {
		return req, ErrBadVersion
	}
	req.Op = Op(payload[1])
	req.Tenant = payload[2]
	req.Seq = binary.LittleEndian.Uint32(payload[4:8])
	req.DeadlineUS = binary.LittleEndian.Uint32(payload[8:12])
	keyLen := int(binary.LittleEndian.Uint16(payload[12:14]))
	if reqHeaderSize+keyLen > len(payload) {
		return req, ErrShortFrame
	}
	req.Key = payload[reqHeaderSize : reqHeaderSize+keyLen]
	req.Value = payload[reqHeaderSize+keyLen:]
	return req, nil
}

// AppendResponse appends resp's frame (length prefix included) to buf and
// returns the extended slice.
func AppendResponse(buf []byte, resp *Response) []byte {
	n := respHeaderSize + len(resp.Value)
	if n > MaxFrame {
		panic("server: response frame exceeds MaxFrame")
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, Version, uint8(resp.Status), resp.Tenant, resp.Flags)
	buf = binary.LittleEndian.AppendUint32(buf, resp.Seq)
	buf = append(buf, resp.Value...)
	return buf
}

// ParseResponse decodes a response payload (no length prefix). Value
// aliases payload.
func ParseResponse(payload []byte) (Response, error) {
	var resp Response
	if len(payload) < respHeaderSize {
		return resp, ErrShortFrame
	}
	if payload[0] != Version {
		return resp, ErrBadVersion
	}
	resp.Status = Status(payload[1])
	resp.Tenant = payload[2]
	resp.Flags = payload[3]
	resp.Seq = binary.LittleEndian.Uint32(payload[4:8])
	resp.Value = payload[respHeaderSize:]
	return resp, nil
}

// ReadFrame reads one length-prefixed frame payload from r into buf
// (grown as needed) and returns the payload slice. A length prefix above
// MaxFrame returns ErrFrameTooBig without allocating; the caller must
// close the connection, since the stream has lost framing.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The prefix is read into buf rather than a local array: a local would
	// escape through the io.Reader interface and cost one heap allocation
	// per frame, which the steady-state zero-alloc contract forbids.
	if cap(buf) < lenPrefixSize {
		buf = make([]byte, lenPrefixSize, 512)
	}
	prefix := buf[:lenPrefixSize]
	if _, err := io.ReadFull(r, prefix); err != nil {
		return buf[:0], err
	}
	n := int(binary.LittleEndian.Uint32(prefix))
	if n > MaxFrame {
		return buf[:0], ErrFrameTooBig
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		// A cut mid-payload is a torn frame, not a clean EOF.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf[:0], err
	}
	return buf, nil
}
