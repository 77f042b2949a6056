GO ?= go
FUZZTIME ?= 10s
# cover fails when total statement coverage drops below this.
COVER_MIN ?= 70

.PHONY: all build test race vet fmt fuzz-smoke bench bench-smoke bench-regress chaos cellbench-test cover ci

all: build

build:
	$(GO) build ./...

# Engine throughput and parallel speedup over ~1M records; the result
# (records/sec per worker count, speedup vs sequential, GOMAXPROCS,
# checkpoint overhead) is recorded in BENCH_engine.json.
bench:
	$(GO) run ./cmd/enginebench -records 1000000 -workers 1,4,8 -out BENCH_engine.json

# A fast CI invocation of the same harness: small workload, one rep,
# result discarded. Catches bit-rot in the bench path, not performance.
# The grep asserts the instrumented run produced its per-stage timing
# section — the observability layer silently off would pass otherwise.
# The checkpoint-encode Go benchmarks (open-session snapshot, sample
# snapshot, a 2-worker checkpoint frame) run once each for the same
# reason.
bench-smoke:
	$(GO) run ./cmd/enginebench -records 50000 -reps 1 -workers 1,4 -ckpt-every 20000 -out BENCH_engine.smoke.json
	grep -q '"stages"' BENCH_engine.smoke.json
	rm -f BENCH_engine.smoke.json
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/clean ./internal/stats ./internal/analysis

# Throughput regression gate: re-run the committed baseline's workload
# and fail when records/sec regressed beyond the rep-spread noise of
# either run plus a 5% floor. Self-skipping (exit 0 with a warning)
# when GOMAXPROCS/NumCPU differ from the machine that produced
# BENCH_engine.json, so it only bites where the comparison means
# something.
bench-regress:
	$(GO) run ./cmd/enginebench -baseline BENCH_engine.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The coordinator fault-tolerance suite under the race detector:
# workers killed mid-stream, hung until speculation or timeout,
# bit-flipped snapshots quarantined, plus the SIGTERM-checkpoint and
# corrupt-partial CLI paths. -count=1 defeats the test cache — chaos
# runs must actually run.
chaos:
	$(GO) test -race -count=1 ./internal/drive/ ./cmd/caranalyze/ ./cmd/carmerge/

# The benchmark (cellbench/, see BENCHMARK.json) is its own module, so
# ./... skips it. Vetting and testing it here makes an API change in a
# package it drives fail CI instead of the next benchmark run.
cellbench-test:
	cd cellbench && $(GO) vet . && $(GO) test .

# STATICCHECK pins the honnef.co/go/tools version CI installs; vet
# runs it when the binary is on PATH and degrades to a warning when it
# is not (the offline dev loop must not require a network install).
STATICCHECK_VERSION ?= 2024.1.1

vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it via honnef.co/go/tools@$(STATICCHECK_VERSION))"; \
	fi

# Gate: the tree must be gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Statement coverage with a floor: prints the total and fails when it
# drops below COVER_MIN.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}')"; \
	echo "total statement coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit !(t+0 >= m+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# Short fuzz runs over the codec entry points; go test accepts one
# -fuzz pattern per invocation, hence one run per target.
fuzz-smoke:
	$(GO) test ./internal/cdr -run='^$$' -fuzz=FuzzCSVReader -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cdr -run='^$$' -fuzz=FuzzBinaryReader -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/snapshot -run='^$$' -fuzz=FuzzReader -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/analysis -run='^$$' -fuzz=FuzzReadPartial -fuzztime=$(FUZZTIME)

ci: fmt vet build race chaos cellbench-test bench-smoke bench-regress fuzz-smoke
