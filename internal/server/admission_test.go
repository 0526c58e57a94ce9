package server

import (
	"testing"
	"time"

	"fscache/internal/futility"
	"fscache/internal/shardcache"
)

func TestTokenBucketRefill(t *testing.T) {
	b := newTokenBucket(1000, 5) // 1000/s, burst 5
	now := int64(0)
	for i := 0; i < 5; i++ {
		if !b.admit(now) {
			t.Fatalf("burst admit %d refused", i)
		}
	}
	if b.admit(now) {
		t.Fatal("admitted past burst with no time elapsed")
	}
	// 2ms at 1000/s refills 2 tokens.
	now += 2 * int64(time.Millisecond)
	if !b.admit(now) || !b.admit(now) {
		t.Fatal("refilled tokens not admitted")
	}
	if b.admit(now) {
		t.Fatal("admitted past refill")
	}
	// A long quiet period caps at burst, not unbounded credit.
	now += int64(time.Hour)
	for i := 0; i < 5; i++ {
		if !b.admit(now) {
			t.Fatalf("post-idle admit %d refused", i)
		}
	}
	if b.admit(now) {
		t.Fatal("bucket accumulated past burst")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	var b *tokenBucket // Rate <= 0 constructs nil: unlimited
	if b = newTokenBucket(0, 0); b != nil {
		t.Fatal("zero rate should mean no bucket")
	}
	for i := 0; i < 1000; i++ {
		if !b.admit(int64(i)) {
			t.Fatal("nil bucket must always admit")
		}
	}
}

func TestDefaultBurst(t *testing.T) {
	if b := newTokenBucket(1000, 0); b.burst != 100 {
		t.Fatalf("default burst = %v, want Rate/10 = 100", b.burst)
	}
	if b := newTokenBucket(5, 0); b.burst != 1 {
		t.Fatalf("default burst = %v, want floor 1", b.burst)
	}
}

// ladderCase drives decide through every rung.
func TestDegradationLadder(t *testing.T) {
	tenants := []TenantConfig{
		{Class: Guaranteed, Rate: 0}, // unlimited bucket
		{Class: BestEffort, Rate: 0},
		{Class: Guaranteed, Rate: 1000, Burst: 1}, // tiny bucket
		{Class: BestEffort, Rate: 1000, Burst: 1},
	}
	cases := []struct {
		name     string
		inflight int64
		tenant   int
		op       Op
		want     verdict
	}{
		{"calm guaranteed admit", 0, 0, OpGet, vAdmit},
		{"calm best-effort admit", 0, 1, OpSet, vAdmit},
		{"soft guaranteed get goes stale", 10, 0, OpGet, vStale},
		{"soft guaranteed set shed", 10, 0, OpSet, vShed},
		{"soft best-effort shed", 10, 1, OpGet, vShed},
		{"hard rejects guaranteed", 40, 0, OpGet, vReject},
		{"hard rejects best-effort", 40, 1, OpGet, vReject},
	}
	for _, tc := range cases {
		a := newAdmission(tenants, 10, 40)
		a.inflight.Store(tc.inflight)
		if got := a.decide(a.tenants[tc.tenant], tc.op, 0); got != tc.want {
			t.Errorf("%s: verdict %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestLadderBucketExhaustion(t *testing.T) {
	tenants := []TenantConfig{
		{Class: Guaranteed, Rate: 1000, Burst: 1},
		{Class: BestEffort, Rate: 1000, Burst: 1},
	}
	a := newAdmission(tenants, 10, 40)
	// First request drains the burst-1 bucket; the second hits the
	// no-token rung: guaranteed GET degrades to stale, best-effort sheds.
	if got := a.decide(a.tenants[0], OpGet, 0); got != vAdmit {
		t.Fatalf("first guaranteed: %d, want admit", got)
	}
	if got := a.decide(a.tenants[0], OpGet, 0); got != vStale {
		t.Fatalf("second guaranteed GET: %d, want stale", got)
	}
	if got := a.decide(a.tenants[0], OpSet, 0); got != vShed {
		t.Fatalf("guaranteed SET without tokens: %d, want shed", got)
	}
	if got := a.decide(a.tenants[1], OpGet, 0); got != vAdmit {
		t.Fatalf("first best-effort: %d, want admit", got)
	}
	if got := a.decide(a.tenants[1], OpGet, 0); got != vShed {
		t.Fatalf("second best-effort: %d, want shed", got)
	}
}

func TestStoreBasics(t *testing.T) {
	s := newTestStore(64, 4, 1)
	k := []byte("alpha")
	addr := hashKey(k)
	if _, ok := get(s, addr, k, nil); ok {
		t.Fatal("empty store returned a value")
	}
	set(s, addr, 0, k, []byte("v1"))
	if v, ok := get(s, addr, k, nil); !ok || string(v) != "v1" {
		t.Fatalf("got %q,%v", v, ok)
	}
	// Same address, different key (simulated hash collision): the store
	// must refuse to serve another key's bytes.
	if _, ok := get(s, addr, []byte("beta"), nil); ok {
		t.Fatal("collision returned wrong key's bytes")
	}
	line := set(s, addr, 0, k, []byte("v2")).Line
	// An overwrite hits the key's line and replaces its bytes there.
	if res := set(s, addr, 0, k, []byte("v2-longer")); !res.Hit || res.Line != line {
		t.Fatalf("overwrite: hit %v at line %d, first SET at line %d", res.Hit, res.Line, line)
	}
	if v, _ := get(s, addr, k, nil); string(v) != "v2-longer" {
		t.Fatalf("overwrite lost: %q", v)
	}
	entries, bytes := s.Stats()
	if entries != 1 || bytes != int64(len(k)+len("v2-longer")) {
		t.Fatalf("stats: %d entries, %d bytes", entries, bytes)
	}
	checkStore(t, s)
	if !del(s, addr) {
		t.Fatal("delete of present key reported absent")
	}
	if del(s, addr) {
		t.Fatal("double delete reported present")
	}
	entries, bytes = s.Stats()
	if entries != 0 || bytes != 0 {
		t.Fatalf("stats after delete: %d entries, %d bytes", entries, bytes)
	}
}

func TestHashKeyDisperses(t *testing.T) {
	// Structured keys ("tenant:000001"...) must spread across store
	// stripes; a pile-up would put every key behind one lock.
	e := shardcache.New(shardcache.Config{
		Lines: 4096, Ways: 16, Shards: 4, Stripes: 4, Parts: 1,
		Ranking: futility.CoarseLRU, Seed: 1,
	})
	s := newStore(e)
	counts := make(map[int]int)
	for i := 0; i < 1600; i++ {
		k := []byte("tenant:" + string(rune('a'+i%26)) + ":" + string(rune('0'+i%10)))
		k = append(k, byte(i>>8), byte(i))
		h := e.Lock(hashKey(k))
		counts[h.Stripe()]++
		h.Unlock()
	}
	if len(counts) != len(s.stripes) {
		t.Fatalf("keys reached %d of %d stripes", len(counts), len(s.stripes))
	}
	for stripe, n := range counts {
		if n > 400 {
			t.Fatalf("stripe %d got %d of 1600 keys", stripe, n)
		}
	}
}
