// Command fsserve runs the overload-resilient multi-tenant cache service
// (internal/server): a length-prefixed TCP key-value front end where each
// tenant maps to one futility-scaling partition of a striped engine.
//
// Tenants are declared with -tenants as comma-separated class[:rate[:burst]]
// specs, where class is "g" (guaranteed) or "b" (best-effort), rate is the
// token-bucket refill in requests/second (0 = unlimited) and burst is the
// bucket depth. The engine's line capacity is split evenly across tenants
// unless -targets overrides it; explicit targets must sum to -lines. The
// engine is 16-way with 16 lock stripes, and the in-flight watermarks are
// the server's defaults.
//
// On SIGINT/SIGTERM the server drains: it stops accepting, lets in-flight
// requests finish and their responses flush, and force-closes stragglers
// only after -draintimeout. Exit status is 0 on a clean drain, 1 on a
// forced drain or a setup failure, and 2 on a usage error.
//
// -faults wraps the listener with a network fault injector seeded with 2026
// (connection resets, torn frames, corrupted length prefixes) so soak
// harnesses can prove the serving stack survives wire damage on its own
// responses; see internal/faultinject.
//
// With -scenario, the tenant topology comes from a declarative scenario
// spec (internal/scenario): one tenant per compiled client (replicated
// clients expand), SLO class from the client's class field, line targets
// from the spec's shares, cache geometry from its cache block. -tenants,
// -targets and -lines are rejected alongside it. The same spec then drives
// matched load via fsload -scenario or the offline fstables -scenario
// comparison.
//
// With -alloc, the static split only seeds the engine: every request's
// engine access feeds the online allocator (internal/alloc), a rebalancer
// polls it every 250 ms and installs its epoch targets, so tenant capacity
// follows the measured miss-ratio curves instead of the configured shares.
// The drain summary and the OpStats payload report the install count.
//
// Examples:
//
//	fsserve -addr 127.0.0.1:7070
//	fsserve -tenants g:5000,b:2000,b:0 -lines 16384
//	fsserve -scenario examples/scenarios/mixed-tenants.yaml
//	fsserve -addr 127.0.0.1:0 -addrfile /tmp/fsserve.addr   # CI smoke
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/faultinject"
	"fscache/internal/futility"
	"fscache/internal/scenario"
	"fscache/internal/server"
	"fscache/internal/shardcache"
)

// The engine layout, allocator poll cadence and fault seed no caller
// varies; -scenario replaces ways with its spec's.
const (
	ways      = 16
	stripes   = 16
	allocPoll = 250 * time.Millisecond
	faultSeed = 2026
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run serves until ctx is done, drains, and returns the exit code. Every
// line it prints is operational and goes to stderr.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7070", "TCP listen address (port 0 picks a free port)")
		addrfile = fs.String("addrfile", "", "write the bound address to this file once listening (for scripts)")
		tenants  = fs.String("tenants", "g,b", "tenant specs: class[:rate[:burst]], class g|b, comma-separated")
		targets  = fs.String("targets", "", "per-tenant line targets summing to -lines, comma-separated (default: even split)")
		lines    = fs.Int("lines", 4096, "total cache lines (power of two)")
		seed     = fs.Uint64("seed", 1, "engine seed (hash functions, replacement sampling)")
		drainT   = fs.Duration("draintimeout", 10*time.Second, "drain grace before force-closing connections")
		faults   = fs.Bool("faults", false, "wrap the listener with the seeded network fault injector")
		scen     = fs.String("scenario", "", "derive tenants, targets and cache geometry from this scenario spec file")
		allocFl  = fs.String("alloc", "", "drive targets with the online allocator under this objective (utility|maxmin|phase; plus qos with -scenario) instead of the static split")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "fsserve:", err)
		return code
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && *scen != "" && (f.Name == "tenants" || f.Name == "targets" || f.Name == "lines") {
			err = fmt.Errorf("-%s cannot be combined with -scenario, which supplies it", f.Name)
		}
	})
	if err != nil {
		return fail(2, err)
	}
	tcs, err := parseTenants(*tenants)
	if err != nil {
		return fail(2, err)
	}
	tgt := make([]int, len(tcs))
	if *targets == "" {
		alloc.EvenSplit(tgt, *lines)
	} else if tgt, err = parseInts(*targets); err != nil {
		return fail(2, err)
	}

	s, err := scenario.NewSetup(*scen, *lines, ways, tgt, *allocFl, *seed)
	if err != nil {
		return fail(1, err)
	}
	if s.Comp != nil {
		tcs = make([]server.TenantConfig, len(s.Comp.Clients))
		for i, cl := range s.Comp.Clients {
			tcs[i].Class = server.Guaranteed
			if cl.Class == "b" {
				tcs[i].Class = server.BestEffort
			}
		}
	}
	cfg := server.Config{
		Tenants:   tcs,
		Targets:   s.Targets,
		Rebalance: allocPoll,
		Cache: shardcache.Config{
			Lines:   s.Lines,
			Ways:    s.Ways,
			Stripes: stripes,
			Parts:   len(tcs),
			Ranking: futility.CoarseLRU,
			Seed:    *seed,
		},
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}
	if err := cfg.Cache.Validate(); err != nil {
		return fail(2, err)
	}
	if s.Alloc != nil {
		cfg.Alloc = s.Alloc
		fmt.Fprintf(stderr, "fsserve: online %s allocation armed (epoch targets install on the %v poll)\n", *allocFl, allocPoll)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return fail(1, err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(1, fmt.Errorf("listen %s: %v", *addr, err))
	}
	if *faults {
		ni := faultinject.NewNetInjector(faultSeed, faultinject.NetFaults{
			Reset:      0.002,
			TornWrite:  0.002,
			CorruptLen: 0.002,
		})
		ln = ni.WrapListener(ln)
		fmt.Fprintf(stderr, "fsserve: network fault injection armed (seed %d)\n", faultSeed)
	}
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fail(1, fmt.Errorf("write addrfile: %v", err))
		}
	}
	srv.Serve(ln)

	<-ctx.Done()
	fmt.Fprintln(stderr, "fsserve: stop signal, draining")
	drainErr := srv.Shutdown(*drainT)

	snap := srv.Stats()
	fmt.Fprintf(stderr,
		"fsserve: served %d conn(s), %d store entries (%d bytes), %d bad frames, %d slow clients, %d panics\n",
		snap.Accepted, snap.StoreEntries, snap.StoreBytes, snap.BadFrames, snap.SlowClients, snap.Panics)
	if s.Alloc != nil {
		fmt.Fprintf(stderr, "fsserve: alloc %s: %d target installs over %d polls\n",
			*allocFl, snap.TargetInstalls, snap.Rebalances)
	}
	for i, t := range snap.Tenants {
		fmt.Fprintf(stderr,
			"fsserve: tenant %d (%s): admitted %d, shed %d, stale %d, rejected %d, deadlined %d\n",
			i, t.Class, t.Admitted, t.Shed, t.StaleServes, t.Rejected, t.Deadlined)
	}
	if drainErr != nil {
		return fail(1, drainErr)
	}
	return 0
}

// parseTenants parses "g:5000,b:2000:300,b" into tenant configs.
func parseTenants(spec string) ([]server.TenantConfig, error) {
	var out []server.TenantConfig
	for _, field := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(field), ":")
		if len(parts) > 3 || parts[0] == "" {
			return nil, fmt.Errorf("bad tenant spec %q (want class[:rate[:burst]])", field)
		}
		var tc server.TenantConfig
		switch parts[0] {
		case "g":
			tc.Class = server.Guaranteed
		case "b":
			tc.Class = server.BestEffort
		default:
			return nil, fmt.Errorf("bad tenant class %q (want g or b)", parts[0])
		}
		if len(parts) > 1 {
			rate, err := strconv.ParseFloat(parts[1], 64)
			if err != nil || rate < 0 {
				return nil, fmt.Errorf("bad tenant rate %q", parts[1])
			}
			tc.Rate = rate
		}
		if len(parts) > 2 {
			burst, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || burst < 0 {
				return nil, fmt.Errorf("bad tenant burst %q", parts[2])
			}
			tc.Burst = burst
		}
		out = append(out, tc)
	}
	return out, nil
}

func parseInts(spec string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad target %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
