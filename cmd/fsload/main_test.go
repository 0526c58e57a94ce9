package main

import (
	"bytes"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fscache/internal/faultinject"
	"fscache/internal/futility"
	"fscache/internal/server"
	"fscache/internal/shardcache"
)

// runDuration keeps every case's measured phase short; a net run with faults
// can still take up to netTimeout longer while a stalled request times out.
const runDuration = "200ms"

func parse(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseFlags(append([]string{"-duration", runDuration, "-workers", "2"}, args...))
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	return o
}

// runArgs runs fsload with args and returns its exit code, stdout and stderr.
func runArgs(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(parse(t, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// count extracts the integer the first group of re matches in out.
func count(t *testing.T, out, re string) uint64 {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %q in output:\n%s", re, out)
	}
	n, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// wantExit checks the exit code and, for a failed gate, the flag it names.
func wantExit(t *testing.T, code, want int, stdout, stderr, flag string) {
	t.Helper()
	if code != want {
		t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, want, stdout, stderr)
	}
	if flag != "" && !strings.Contains(stderr, "exceeds "+flag) {
		t.Fatalf("stderr does not name the %s gate:\n%s", flag, stderr)
	}
}

func TestEngineTarget(t *testing.T) {
	for _, batch := range []string{"1", "16"} {
		t.Run("batch"+batch, func(t *testing.T) {
			code, stdout, stderr := runArgs(t, "-stripes", "4", "-batch", batch, "-maxocc", "1")
			wantExit(t, code, 0, stdout, stderr, "")
			ops := count(t, stdout, `total: (\d+) ops`)
			accesses := count(t, stdout, `engine: (\d+) accesses`)
			if ops == 0 || ops != accesses {
				t.Fatalf("workers issued %d ops, engine recorded %d accesses", ops, accesses)
			}
			code, stdout, stderr = runArgs(t, "-stripes", "4", "-batch", batch, "-maxocc", "0")
			wantExit(t, code, 1, stdout, stderr, "-maxocc")
		})
	}
}

func TestEngineTargetScenarioAlloc(t *testing.T) {
	code, stdout, stderr := runArgs(t, "-scenario", "../../examples/scenarios/zipf-drift.yaml", "-alloc", "utility", "-maxocc", "1")
	wantExit(t, code, 0, stdout, stderr, "")
	for _, want := range []string{"scenario zipf-drift (2 clients)", "alloc utility:"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("no %q in output:\n%s", want, stdout)
		}
	}
}

// startServer serves a two-tenant cache on a loopback port for the test's
// lifetime. The cache is larger than a short run can fill, so every tenant
// ends below its target.
func startServer(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{
		Tenants: []server.TenantConfig{{Class: server.Guaranteed}, {Class: server.BestEffort}},
		Cache: shardcache.Config{
			Lines: 1 << 14, Ways: 16, Stripes: 2, Parts: 2,
			Ranking: futility.CoarseLRU, Seed: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Error(err)
		}
	})
	return ln.Addr().String()
}

func TestNetTarget(t *testing.T) {
	addr := startServer(t)
	for _, faults := range []bool{false, true} {
		t.Run("faults="+strconv.FormatBool(faults), func(t *testing.T) {
			args := []string{"-net", addr, "-faults=" + strconv.FormatBool(faults)}
			code, stdout, stderr := runArgs(t, append(args, "-maxocc", "1")...)
			wantExit(t, code, 0, stdout, stderr, "")
			if count(t, stdout, `total: (\d+) ops`) == 0 {
				t.Fatal("no requests")
			}
			code, stdout, stderr = runArgs(t, append(args, "-maxocc", "0")...)
			wantExit(t, code, 1, stdout, stderr, "-maxocc")
		})
	}
}

// TestNetTargetErrorGate makes most attempts fail, so requests exhaust their
// retries and the failed-request gate trips.
func TestNetTargetErrorGate(t *testing.T) {
	o := parse(t, "-net", startServer(t), "-faults", "-maxerr", "0")
	nt, err := newNetTarget(o)
	if err != nil {
		t.Fatal(err)
	}
	nt.inj = faultinject.NewNetInjector(faultSeed, faultinject.NetFaults{Reset: 0.9})
	var stdout, stderr bytes.Buffer
	code := drive(nt, o, &stdout, &stderr)
	wantExit(t, code, 1, stdout.String(), stderr.String(), "-maxerr")
	if count(t, stdout.String(), `, (\d+) failed`) == 0 {
		t.Fatal("no failed requests")
	}
}

// A stripe count the engine cannot be built with is a usage error: one line
// naming it and exit 2, not a panic.
func TestBadGeometryExitsTwo(t *testing.T) {
	for _, tc := range []struct{ stripes, want string }{
		{"3", "Stripes must be a positive power of two"},
		{"512", "more lock stripes than sets"},
	} {
		code, stdout, stderr := runArgs(t, "-stripes", tc.stripes)
		if code != 2 || stderr != "fsload: "+tc.want+"\n" || stdout != "" {
			t.Errorf("-stripes %s: exit %d, want 2 with one line naming %q\nstdout:\n%s\nstderr:\n%s",
				tc.stripes, code, tc.want, stdout, stderr)
		}
	}
}

func TestFlagsRejectedForTheOtherTarget(t *testing.T) {
	cases := []struct {
		args []string
		flag string // "" = accepted
	}{
		{[]string{"-batch", "16"}, ""},
		{[]string{"-net", "x:1", "-hedge", "20ms", "-faults"}, ""},
		{[]string{"-net", "x:1", "-stripes", "2"}, "-stripes"},
		{[]string{"-net", "x:1", "-batch", "16"}, "-batch"},
		{[]string{"-net", "x:1", "-scenario", "s.yaml"}, "-scenario"},
		{[]string{"-net", "x:1", "-alloc", "utility"}, "-alloc"},
		{[]string{"-keys", "16"}, "-keys"},
		{[]string{"-deadline", "50ms"}, "-deadline"},
		{[]string{"-hedge", "20ms"}, "-hedge"},
		{[]string{"-faults"}, "-faults"},
		{[]string{"-maxerr", "0.05"}, "-maxerr"},
	}
	for _, tc := range cases {
		_, err := parseFlags(tc.args)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%q rejected: %v", tc.args, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%q: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}
