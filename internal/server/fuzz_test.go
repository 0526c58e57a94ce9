package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"fscache/internal/xrand"
)

// FuzzFrameStream exercises the codec one level below FuzzFrame (which
// fuzzes bare payloads): arbitrary byte *streams* through ReadFrame — torn
// length prefixes, hostile lengths, pipelined frames — must never panic or
// allocate beyond MaxFrame, and any payload accepted must survive a
// re-encode/re-parse round trip. This is the same totality contract the
// network fault injector probes dynamically (corrupt length prefixes, torn
// frames); the fuzzer probes it without needing a socket.
func FuzzFrameStream(f *testing.F) {
	// Seed corpus: well-formed frames for each shape the server emits or
	// accepts, plus the canonical corruption modes.
	var seed []byte
	seed = AppendRequest(seed[:0], &Request{Op: OpPing, Seq: 1})
	f.Add(append([]byte(nil), seed...))
	seed = AppendRequest(seed[:0], &Request{
		Op: OpGet, Tenant: 1, Seq: 7, DeadlineUS: 2500, Key: []byte("k-0001"),
	})
	getFrame := append([]byte(nil), seed...)
	f.Add(getFrame)
	seed = AppendRequest(seed[:0], &Request{
		Op: OpSet, Tenant: 0, Seq: 8, Key: []byte("k"), Value: bytes.Repeat([]byte{0xA5}, 96),
	})
	f.Add(append([]byte(nil), seed...))
	seed = AppendResponse(seed[:0], &Response{
		Status: StatusOK, Tenant: 1, Flags: FlagHit, Seq: 7, Value: []byte("v"),
	})
	f.Add(append([]byte(nil), seed...))

	f.Add(getFrame[:3])               // torn length prefix
	f.Add(getFrame[:lenPrefixSize+5]) // torn payload
	huge := append([]byte(nil), getFrame...)
	binary.LittleEndian.PutUint32(huge[:4], MaxFrame+1) // hostile prefix
	f.Add(huge)
	badver := append([]byte(nil), getFrame...)
	badver[lenPrefixSize] = Version + 1 // unsupported version
	f.Add(badver)
	two := append(append([]byte(nil), getFrame...), getFrame...) // pipelined
	f.Add(two)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			payload, err := ReadFrame(r, buf)
			if err != nil {
				break
			}
			buf = payload
			if len(payload) > MaxFrame {
				t.Fatalf("ReadFrame returned %d bytes, above MaxFrame", len(payload))
			}
			if req, err := ParseRequest(payload); err == nil {
				enc := AppendRequest(nil, &req)
				back, err := ReadFrame(bytes.NewReader(enc), nil)
				if err != nil {
					t.Fatalf("re-read of re-encoded request: %v", err)
				}
				req2, err := ParseRequest(back)
				if err != nil {
					t.Fatalf("re-parse of re-encoded request: %v", err)
				}
				if req2.Op != req.Op || req2.Tenant != req.Tenant ||
					req2.Seq != req.Seq || req2.DeadlineUS != req.DeadlineUS ||
					!bytes.Equal(req2.Key, req.Key) || !bytes.Equal(req2.Value, req.Value) {
					t.Fatalf("request round trip changed: %+v != %+v", req2, req)
				}
			}
			if resp, err := ParseResponse(payload); err == nil {
				enc := AppendResponse(nil, &resp)
				back, err := ReadFrame(bytes.NewReader(enc), nil)
				if err != nil {
					t.Fatalf("re-read of re-encoded response: %v", err)
				}
				resp2, err := ParseResponse(back)
				if err != nil {
					t.Fatalf("re-parse of re-encoded response: %v", err)
				}
				if resp2.Status != resp.Status || resp2.Tenant != resp.Tenant ||
					resp2.Flags != resp.Flags || resp2.Seq != resp.Seq ||
					!bytes.Equal(resp2.Value, resp.Value) {
					t.Fatalf("response round trip changed: %+v != %+v", resp2, resp)
				}
			}
		}
	})
}

// fuzzOps maps a script byte's low three bits to a frame's op: the data ops
// twice as often as Stats and Ping.
var fuzzOps = [8]Op{OpGet, OpSet, OpGet, OpSet, OpDel, OpStats, OpPing, OpDel}

// fuzzBig is the length of an oversized key or value: longer than the
// connection's read buffer, so its frame is never whole in it and ends a run.
const fuzzBig = 20000

// decodeServerScript turns fuzz bytes into client writes of 1–40 request
// frames each. A write is a count byte and then three bytes a frame:
//
//   - op and tenant: the low three bits index fuzzOps, the high five are the
//     tenant, taken mod 2 below 24 and kept (so out of range) from 24 up;
//   - key: 0 is the empty key, 1 an oversized one, any other b the key
//     model-<b-2>;
//   - value (SET only): b × 6 bytes of the sequence number and then the key,
//     or an oversized value at 255.
//
// Sequence numbers count from 1 across the script.
func decodeServerScript(data []byte) [][]Request {
	var writes [][]Request
	var seq uint32
	for len(data) >= 4 {
		n := 1 + int(data[0])%40
		data = data[1:]
		var reqs []Request
		for ; n > 0 && len(data) >= 3; n-- {
			seq++
			req := Request{Op: fuzzOps[data[0]&7], Tenant: data[0] >> 3, Seq: seq}
			if req.Tenant < 24 {
				req.Tenant %= 2
			}
			switch k := data[1]; k {
			case 0:
			case 1:
				req.Key = bytes.Repeat([]byte{'K'}, fuzzBig)
			default:
				req.Key = []byte(fmt.Sprintf("model-%04d", k-2))
			}
			if req.Op == OpSet {
				if v := int(data[2]); v == 255 {
					req.Value = bytes.Repeat([]byte{'V'}, fuzzBig)
				} else {
					req.Value = append(bytes.Repeat([]byte{byte(seq)}, 6*v), req.Key...)
				}
			}
			reqs = append(reqs, req)
			data = data[3:]
		}
		writes = append(writes, reqs)
	}
	return writes
}

// encodeServerScript is decodeServerScript's inverse up to key ids, value
// lengths and out-of-range tenants, which it folds into the script's ranges.
func encodeServerScript(writes [][]Request) []byte {
	var data []byte
	for _, reqs := range writes {
		data = append(data, byte(len(reqs)-1))
		for _, req := range reqs {
			op := 0
			for i, o := range fuzzOps {
				if o == req.Op {
					op = i
					break
				}
			}
			tenant := int(req.Tenant)
			if tenant >= 2 {
				tenant = 24
			}
			var id int
			fmt.Sscanf(string(req.Key), "model-%d", &id)
			val := len(req.Value) / 6
			if val > 254 {
				val = 254
			}
			data = append(data, byte(tenant<<3|op), byte(id%254+2), byte(val))
		}
	}
	return data
}

// FuzzServerRun plays a script of pipelined GET, SET, DEL, Stats and Ping
// frames over an in-memory connection, one client write at a time, against
// serverModel. Every response must match the model's; after each write's
// responses are in, the store must pass its audit, hold exactly the model's
// entries and count their bytes as the model does, and the engine's targets must sum to its lines. The seed corpus
// is TestServerAgainstModel's first bursts.
func FuzzServerRun(f *testing.F) {
	cfg := testConfig()
	cfg.Cache.Stripes = 4
	cfg.softInflight = 1 << 20
	rng := xrand.New(16)
	var seq uint32
	var all [][]Request
	for _, depth := range []int{1, 2, 16, 100, 1, 16} {
		burst := modelBurst(rng, depth, &seq, cfg.Cache.Lines)
		var writes [][]Request
		for len(burst) > 0 {
			n := len(burst)
			if n > 40 {
				n = 40
			}
			writes, burst = append(writes, burst[:n]), burst[n:]
		}
		f.Add(encodeServerScript(writes))
		all = append(all, writes...)
	}
	f.Add(encodeServerScript(all))

	f.Fuzz(func(t *testing.T, data []byte) {
		writes := decodeServerScript(data)
		if len(writes) == 0 {
			return
		}
		s, l := startPipeServer(t, cfg)
		c := l.dial(t)
		model := newServerModel(cfg)
		for w, reqs := range writes {
			var burst []byte
			for i := range reqs {
				burst = AppendRequest(burst, &reqs[i])
			}
			_ = c.nc.SetDeadline(time.Now().Add(2 * time.Second))
			// A pipe write completes only as the server reads it, and the
			// server answers a run before it reads the next: write from
			// another goroutine while the responses are read here.
			wrote := make(chan error, 1)
			go func() {
				_, err := c.nc.Write(burst)
				wrote <- err
			}()
			for i := range reqs {
				var err error
				if c.buf, err = ReadFrame(c.br, c.buf); err != nil {
					t.Fatalf("write %d response %d: %v", w, i, err)
				}
				got, err := ParseResponse(c.buf)
				if err != nil {
					t.Fatalf("write %d response %d: %v", w, i, err)
				}
				req := &reqs[i]
				want := model.apply(req)
				if req.Op == OpStats {
					got.Value = nil // the server's counters, which the model does not keep
				}
				if !sameResponse(got, want) {
					t.Fatalf("write %d response %d to %v tenant %d %d-byte key: got seq %d %v flags %x %d bytes, model seq %d %v flags %x %d bytes",
						w, i, req.Op, req.Tenant, len(req.Key), got.Seq, got.Status, got.Flags, len(got.Value),
						want.Seq, want.Status, want.Flags, len(want.Value))
				}
			}
			if err := <-wrote; err != nil {
				t.Fatalf("write %d: %v", w, err)
			}
			if err := s.store.CheckInvariants(); err != nil {
				t.Fatalf("after write %d: %v", w, err)
			}
			if d := model.diff(s); d != "" {
				t.Fatalf("after write %d: %s", w, d)
			}
			sum := 0
			for _, p := range s.engine.Snapshot().Parts {
				sum += p.Target
			}
			if sum != cfg.Cache.Lines {
				t.Fatalf("after write %d: targets sum to %d, want %d lines", w, sum, cfg.Cache.Lines)
			}
		}
	})
}
