# Developer entry points. `make check` (build, lint, test, race) is CI's core;
# CI also runs counted, fuzz, smoke, scenarios, alloc, netsoak and cover, and
# .github/workflows/ci.yml is the one full list.

GO ?= go

.PHONY: build test race lint check fmt fuzz counted parallel smoke scenarios alloc bench cover soak load serve netsoak loc

build:
	$(GO) build ./...

# bench/ is a module of its own (BENCHMARK.json's program) that imports
# internal/ packages, so `./...` does not reach it: vet and test it here, or
# an internal API change breaks the benchmark with everything else green.
test:
	$(GO) test ./...
	$(GO) vet -C bench .
	$(GO) test -C bench ./...

# Full-module race run; -short trims the heavyweight property sweeps so the
# 10x race-detector slowdown stays tolerable (CI runs this as its own job).
race:
	$(GO) test -race -short ./...

# vet + gofmt + fslint's four analyzers (allocfree with its escape-analysis
# cross-check, determinism, lockcheck, style) and its suppression checks,
# over this module and the bench/ module (which `./...` does not reach).
# `go run ./cmd/fslint -list` describes each analyzer.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) run ./cmd/fslint ./...
	cd bench && $(GO) run ../cmd/fslint ./...

fmt:
	gofmt -w .

# Non-test Go lines outside bench/, counted over tracked files: the figure a
# simplicity change reports before and after. Fixtures under testdata/ (the
# analyzers' sample packages) are test input, not program, and are left out.
# Prints the count; gates nothing.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' -e '/testdata/' | xargs cat | wc -l

# Short fuzz sessions (seed corpus + 10s of mutation each): the trace
# decoder, the scenario spec parser (Parse, Compile, Targets), the
# differential oracle over scenario programs, the serving
# layer's wire codec at both the payload and framed-stream level, its request
# path (pipelined frame scripts over a pipe) against the sequential server
# model, the H3 table kernel against its bit-serial definition, the recency
# index against its slice model, and the MRC profiler's tag table against a
# map-and-stack model (the last three check or audit their whole structure
# after every step of a script, hence the bounded minimisation: the default
# 60 s per new input would eat the whole run).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadFrom -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzAccess -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzFrame$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzFrameStream -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzServerRun -fuzztime=10s -fuzzminimizetime=20x ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzH3 -fuzztime=10s ./internal/hashing
	$(GO) test -run='^$$' -fuzz=FuzzIndex -fuzztime=10s -fuzzminimizetime=20x ./internal/recency
	$(GO) test -run='^$$' -fuzz=FuzzProfiler -fuzztime=10s -fuzzminimizetime=20x ./internal/alloc

# Counted work: the fscount build counts stripe-lock acquisitions, H3
# evaluations, ranker queries and recency compaction work, and every package's
# TestCounted pins them per operation. This is the one list CI runs. The hooks
# have one home, internal/stats/count_fscount.go: any other non-test file
# built only under the tag fails the target first. That file and the
# counted_test.go files compile only under the tag, so they are vetted here
# next: no other target sees them.
counted:
	@out=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.git \
		'^//go:build(.*[^!])?fscount' . | grep -vx './internal/stats/count_fscount.go'); \
	if [ -n "$$out" ]; then \
		echo "fscount hooks live only in internal/stats/count_fscount.go; also tagged:" >&2; \
		echo "$$out" >&2; exit 1; fi
	$(GO) vet -tags fscount ./internal/...
	$(GO) test -tags fscount -run Counted ./internal/...

# The engine's contended rows at one and two procs, three runs each: what
# DESIGN.md §15's second-core table is regenerated from. Timings only; no
# gate reads them, so CI does not run it.
parallel:
	$(GO) test -run '^$$' -bench Parallel -cpu 1,2 -count 3 ./internal/shardcache

# End-to-end smoke: the full quick-scale sweep must exit 0.
smoke:
	$(GO) run ./cmd/fstables -scale quick

# Adversarial scenario matrix (DESIGN.md §16): run every committed spec in
# examples/scenarios through fstables, including the counterfactual
# re-ranking columns. The FS self-replay row must report zero divergence;
# fstables exits non-zero if it does not.
scenarios:
	$(GO) run ./cmd/fstables -scenario examples/scenarios

# Online-allocation smoke (DESIGN.md §17): the measurement→targets loop on
# two committed specs — a mid-run phase change (zipf-drift) and tenant
# arrival/departure (tenant-churn). RunScenarioAlloc exits non-zero when any
# epoch's targets break the per-partition floors or the line budget, or when
# the allocator's aggregate miss ratio diverges above the static split's by
# more than the gate margin.
alloc:
	$(GO) run ./cmd/fstables -scenario examples/scenarios/zipf-drift.yaml -alloc phase
	$(GO) run ./cmd/fstables -scenario examples/scenarios/tenant-churn.yaml -alloc utility

# Every package's benchmarks with allocation counts. The Parallel rows in
# internal/shardcache measure scaling: add -cpu 1,2,4,8,16 to sweep GOMAXPROCS.
# The zero-allocation contracts are tests, so `make test` gates them; this
# target only measures.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/...

# Advisory coverage of the library and the binaries: writes the merged
# profile (cover.out) and a per-package summary (cover.txt, also printed).
# Never fails on a threshold — coverage here is a review signal, not a gate.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/...,./cmd/... ./... | tee cover.txt
	$(GO) tool cover -func=cover.out | tail -1
	@echo "per-package summary in cover.txt, full profile in cover.out"

# Long-running differential soak: coverage-guided fuzzing of core.Cache
# against the naive oracle (FuzzAccess). A divergence is saved as a crasher
# under internal/core/testdata/fuzz/FuzzAccess, where plain
# `go test ./internal/core` replays it; commit it as a regression seed.
soak:
	$(GO) test -run '^$$' -fuzz '^FuzzAccess$$' -fuzztime 10m ./internal/core

# Concurrent load against the striped engine under the race detector:
# free-running workers on static targets (no allocator, so no rebalancer),
# reporting throughput, latency quantiles and each partition's size against
# its target (DESIGN.md §12). CI runs the same configuration in its race job.
load:
	$(GO) run -race ./cmd/fsload -stripes 8 -workers 4 -batch 16 -duration 2s

# Run the multi-tenant cache server in the foreground with two tenants
# (one guaranteed, one best-effort) and a 2:1 capacity split. Ctrl-C drains.
serve:
	$(GO) run ./cmd/fsserve -tenants g:0,b:0 -targets 2731,1365

# End-to-end serving-layer soak under the race detector: a race-built
# fsserve with listener-side fault injection, a faulty closed-loop fsload
# fleet with an error-rate gate (DESIGN.md §14), then a SIGTERM drain that must
# come back clean (fsserve exits 1 on a forced drain). No -maxocc: the ≈ 6 k
# requests this run completes under -race cannot converge a 512-line cache, and
# -maxocc 0.25 failed 5 of 8 runs on an unchanged tree; how sizes track
# targets is gated by the engine tests (internal/shardcache), not here. The
# EXIT trap kills the server on any earlier failure, so a failed gate does not
# leave it running. CI's server job runs the same shape with a shorter duration.
netsoak:
	@set -e; \
	tmp=$$(mktemp -d); pid=; \
	trap '[ -z "$$pid" ] || kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -race -o "$$tmp/fsserve" ./cmd/fsserve; \
	$(GO) build -race -o "$$tmp/fsload" ./cmd/fsload; \
	"$$tmp/fsserve" -addr 127.0.0.1:0 -addrfile "$$tmp/addr" -lines 512 \
		-tenants g:0,b:0 -targets 342,170 -faults & pid=$$!; \
	for i in $$(seq 1 50); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr" ] || { echo "fsserve never wrote its address" >&2; exit 1; }; \
	"$$tmp/fsload" -net "$$(cat "$$tmp/addr")" -workers 4 -keys 4096 -duration 3s \
		-deadline 50ms -hedge 20ms -faults -maxerr 0.05; \
	kill -TERM $$pid; wait $$pid; pid=

check: build lint test race
