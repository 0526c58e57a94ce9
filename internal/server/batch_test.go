package server

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// pipelineConfig enables striping so a run crosses stripe boundaries.
func pipelineConfig() Config {
	cfg := testConfig()
	cfg.Cache.Stripes = 4
	cfg.Cache.Lines = 1024
	return cfg
}

// TestPipelinedGets drives pipelined GETs end to end: a client writes a
// burst of GET frames in one TCP write, so the server's reader finds the
// whole run buffered and serves it through one shardcache.Batch. Every
// response must come back in request order with the right bytes.
func TestPipelinedGets(t *testing.T) {
	s := startServer(t, pipelineConfig())
	c := dialTest(t, s)

	const n = 100
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		if r := c.mustRPC(Request{Op: OpSet, Tenant: uint8(i % 2), Key: key, Value: []byte(fmt.Sprintf("val-%03d", i))}); r.Status != StatusOK {
			t.Fatalf("set %d: %v", i, r.Status)
		}
	}

	// One write, n pipelined GETs. n > batchMax, so the server must chop
	// the burst into several runs and still answer strictly in order.
	var burst []byte
	for i := 0; i < n; i++ {
		c.seq++
		burst = AppendRequest(burst, &Request{
			Op:     OpGet,
			Tenant: uint8(i % 2),
			Seq:    c.seq,
			Key:    []byte(fmt.Sprintf("key-%03d", i)),
		})
	}
	_ = c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.nc.Write(burst); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	firstSeq := c.seq - n + 1
	for i := 0; i < n; i++ {
		var err error
		c.buf, err = ReadFrame(c.br, c.buf)
		if err != nil {
			t.Fatalf("read response %d: %v", i, err)
		}
		resp, err := ParseResponse(c.buf)
		if err != nil {
			t.Fatalf("parse response %d: %v", i, err)
		}
		if want := firstSeq + uint32(i); resp.Seq != want {
			t.Fatalf("response %d out of order: seq %d, want %d", i, resp.Seq, want)
		}
		if resp.Status != StatusOK && resp.Status != StatusNotFound {
			t.Fatalf("response %d: status %v", i, resp.Status)
		}
		if resp.Status == StatusOK {
			if want := fmt.Sprintf("val-%03d", i); string(resp.Value) != want {
				t.Fatalf("response %d: value %q, want %q", i, resp.Value, want)
			}
		}
	}

	// The connection is still healthy for sequential traffic afterwards.
	if r := c.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("ping after burst: %v", r.Status)
	}
}

// TestPipelinedMixedRun pins a run's order: a burst of GETs with a SET in
// the middle, all of one key, must answer everything in order with the SET
// applied at its position — the GETs before it read the old value and the
// GETs after it the new one.
func TestPipelinedMixedRun(t *testing.T) {
	s := startServer(t, pipelineConfig())
	c := dialTest(t, s)

	if r := c.mustRPC(Request{Op: OpSet, Tenant: 0, Key: []byte("a"), Value: []byte("old")}); r.Status != StatusOK {
		t.Fatalf("seed set: %v", r.Status)
	}
	// get a (old) · get a (old) · set a=new · get a (new) · get a (new)
	get := Request{Op: OpGet, Key: []byte("a")}
	resps := c.pipeline([]Request{get, get, {Op: OpSet, Key: []byte("a"), Value: []byte("new")}, get, get})
	want := []string{"old", "old", "", "new", "new"}
	for i, r := range resps {
		if r.Seq != c.seq-4+uint32(i) || r.Status != StatusOK || string(r.Value) != want[i] {
			t.Fatalf("response %d: seq %d %v %q, want %q", i, r.Seq, r.Status, r.Value, want[i])
		}
	}
}

// TestPipelinedBadFrameInRun pins in-order error reporting: a malformed
// payload in the middle of a GET run must produce a StatusBadRequest at its
// position without dropping the connection or disturbing its neighbours.
func TestPipelinedBadFrameInRun(t *testing.T) {
	s := startServer(t, pipelineConfig())
	c := dialTest(t, s)

	if r := c.mustRPC(Request{Op: OpSet, Tenant: 0, Key: []byte("k"), Value: []byte("v")}); r.Status != StatusOK {
		t.Fatalf("seed set: %v", r.Status)
	}

	var burst []byte
	c.seq++
	burst = AppendRequest(burst, &Request{Op: OpGet, Tenant: 0, Seq: c.seq, Key: []byte("k")})
	// A framed GET whose payload header lies about the key length: the
	// frame boundary is intact, the payload is not.
	c.seq++
	bad := AppendRequest(nil, &Request{Op: OpGet, Tenant: 0, Seq: c.seq, Key: []byte("k")})
	bad[4+12] = 0xff // keyLen low byte: points past the payload
	bad[4+13] = 0xff
	burst = append(burst, bad...)
	c.seq++
	burst = AppendRequest(burst, &Request{Op: OpGet, Tenant: 0, Seq: c.seq, Key: []byte("k")})

	_ = c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.nc.Write(burst); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	wantStatus := []Status{StatusOK, StatusBadRequest, StatusOK}
	for i, want := range wantStatus {
		var err error
		c.buf, err = ReadFrame(c.br, c.buf)
		if err != nil {
			t.Fatalf("read response %d: %v", i, err)
		}
		resp, err := ParseResponse(c.buf)
		if err != nil {
			t.Fatalf("parse response %d: %v", i, err)
		}
		if resp.Status != want {
			t.Fatalf("response %d: status %v, want %v", i, resp.Status, want)
		}
	}
	if r := c.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("conn should survive a bad pipelined frame: %v", r.Status)
	}
}

// pipeline writes reqs in one client write, numbering them from c's next
// sequence number, and returns their responses in arrival order.
func (c *testClient) pipeline(reqs []Request) []Response {
	c.t.Helper()
	var burst []byte
	for i := range reqs {
		c.seq++
		reqs[i].Seq = c.seq
		burst = AppendRequest(burst, &reqs[i])
	}
	_ = c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.nc.Write(burst); err != nil {
		c.t.Fatalf("write burst: %v", err)
	}
	resps := make([]Response, len(reqs))
	for i := range resps {
		resps[i] = c.next()
		resps[i].Value = append([]byte(nil), resps[i].Value...)
	}
	return resps
}

// TestPipelinedSetGetDel pins one run of every data op on one key and a
// Ping: each request sees the ones before it, and the responses come back
// in order.
func TestPipelinedSetGetDel(t *testing.T) {
	s := startServer(t, pipelineConfig())
	c := dialTest(t, s)
	k := []byte("k")
	resps := c.pipeline([]Request{
		{Op: OpSet, Key: k, Value: []byte("v1")},
		{Op: OpGet, Key: k},
		{Op: OpSet, Key: k, Value: []byte("v2")},
		{Op: OpGet, Key: k},
		{Op: OpDel, Key: k},
		{Op: OpGet, Key: k},
		{Op: OpPing},
	})
	want := []struct {
		status Status
		flags  uint8
		val    string
	}{
		{StatusOK, 0, ""}, {StatusOK, FlagHit, "v1"}, {StatusOK, 0, ""}, {StatusOK, FlagHit, "v2"},
		{StatusOK, 0, ""}, {StatusNotFound, 0, ""}, {StatusOK, 0, ""},
	}
	for i, r := range resps {
		if w := want[i]; r.Seq != c.seq-6+uint32(i) || r.Status != w.status || r.Flags != w.flags || string(r.Value) != w.val {
			t.Errorf("response %d: seq %d %v flags %x %q, want %v flags %x %q", i, r.Seq, r.Status, r.Flags, r.Value, w.status, w.flags, w.val)
		}
	}
}

// TestPipelinedStatsCountsEarlierSets pins where a run stops: a Stats frame
// behind a burst of SETs ends their run, so its snapshot counts every one of
// them, and a SET behind it is not yet counted.
func TestPipelinedStatsCountsEarlierSets(t *testing.T) {
	s := startServer(t, pipelineConfig())
	c := dialTest(t, s)
	var reqs []Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, Request{Op: OpSet, Tenant: uint8(i % 2), Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")})
	}
	reqs = append(reqs, Request{Op: OpStats}, Request{Op: OpSet, Key: []byte("late"), Value: []byte("v")})
	resps := c.pipeline(reqs)
	for i, r := range resps {
		if r.Status != StatusOK {
			t.Fatalf("response %d: %v", i, r.Status)
		}
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(resps[10].Value, &snap); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if snap.StoreEntries != 10 {
		t.Fatalf("stats behind 10 pipelined SETs counts %d store entries", snap.StoreEntries)
	}
	if entries, _ := s.store.Stats(); entries != 11 {
		t.Fatalf("store holds %d entries after 11 SETs", entries)
	}
}
