# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test fmt-check perfbench-check race fuzz-short chaos fleet fleet-heavy torture bench bench-json bench-sanity bench-scaling metrics-lint

all: build test

build:
	go build ./...

test:
	go test ./...

# Fails when any tracked Go file (perfbench/ included) is not
# gofmt-clean, listing the offenders.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# perfbench/ is its own module, outside the root ./...: vet and test it
# so a serve API change cannot break the benchmark harness unseen.
perfbench-check:
	cd perfbench && go vet . && go test -count=1 .

race:
	go test -race ./internal/psl/ ./internal/serve/ ./internal/obs/ ./internal/experiments/ ./internal/dist/ ./internal/resilience/ ./internal/failpoint/ ./internal/chaos/ ./internal/fleet/ ./internal/submit/ ./internal/torture/

# A short coverage-guided run of the write path's differential target:
# the incremental semantic and risk stages against their full-scan
# originals on fuzzer-chosen populations and submissions.
fuzz-short:
	go test -run '^$$' -fuzz FuzzRiskIncremental -fuzztime 10s ./internal/submit/

# The full chaos replay: origin behind the net.origin failpoint ->
# replica, six wire fault kinds, crash-restart, goroutine-leak
# assertion. Runs under -race.
chaos:
	go test -race -count=1 -v -run 'TestChaosE2EReplication' ./internal/dist/

# The CI fleet smoke: a seeded 200-edge, 2-tier run vs its single-tier
# baseline under -race, all six wire fault kinds armed on both tiers
# (each at 0.0086, so 1-(1-0.0086)^6 ≈ 5% of requests fault); fails
# unless both converge with zero unverified swaps and the relay tier
# strictly reduces origin egress.
FLEET_WIRE = latency(0.0086,d=60ms)|reset(0.0086)|truncate(0.0086)|bitflip(0.0086)|5xx(0.0086,burst=3)|stall(0.0086,d=250ms)
fleet:
	go run -race ./cmd/pslfleet -seed 7 -edges 200 -relays 4 -retain 128 \
		-versions 120 -duration 30s -base-poll 250ms -advance-every 3s \
		-churn 0.05 -failpoints 'net.origin=$(FLEET_WIRE);net.relay=$(FLEET_WIRE)' -compare -check

# The thousand-edge acceptance run (several minutes under -race).
fleet-heavy:
	PSLFLEET_HEAVY=1 go test -race -count=1 -v -run 'TestFleetThousandEdges' ./internal/fleet/

# The full crash-consistency torture matrix under -race: every
# registered failpoint site in the dist-state, matcher-blob,
# submit-store, and replica-resume scenarios, each hit index, err and
# crash modes. A violated recovery invariant fails with the exact
# `scenario=... seed=... spec="..."` line that reproduces it.
torture:
	go test -race -count=1 -v -run 'Torture' ./internal/torture/

bench:
	go test -run '^$$' -bench . -benchmem ./internal/psl/ .

# Regenerate the machine-readable performance baseline.
bench-json:
	go run ./cmd/pslbench -out BENCH_matchers.json

# The CI perf gate: reduced pslbench run that fails when a batch row
# costs more than a cached single lookup or the HTTP batch advantage
# drops below 3x.
bench-scaling:
	go run ./cmd/pslbench -quick -check -out /tmp/bench-scaling.json

# One-iteration pass over every benchmark that backs an acceptance
# criterion, plus the zero-alloc guard tests — the CI sanity gate.
bench-sanity:
	go test -run '^$$' -bench 'BenchmarkMatcherAblation|BenchmarkPackedCompile9k' -benchtime=1x ./internal/psl/
	go test -run '^$$' -bench 'BenchmarkServeLookup|BenchmarkSweep' -benchtime=1x .
	go test -run '^$$' -bench 'BenchmarkPatchChain' -benchtime=1x ./internal/dist/
	go test -run 'ZeroAlloc' -count=1 ./internal/psl/ ./internal/serve/ ./internal/obs/ ./internal/resilience/

# Scrape a locally running pslserver and lint the exposition.
metrics-lint:
	curl -sf http://127.0.0.1:8353/metrics | go run ./cmd/promlint -min-families 12
