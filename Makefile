# Developer entry points mirroring CI (.github/workflows/ci.yml):
# `make check fuzz` is the test job (check runs everything but the
# bounded fuzz runs), `make bench` is the bench job. Run them before
# pushing and the gates cannot surprise you.

GO ?= go
# `make bench` writes its artifact under the gitignored build directory,
# so a local run never overwrites the committed BENCH_* trajectory.
BENCH_OUT ?= .bench_build/BENCH_local.json
BENCH_PREV ?= BENCH_9.json

.PHONY: check fmt vet build build-bench test race fuzz bench-kernels bench bench-compare api loc obs lint clean

check: fmt vet build build-bench race bench-kernels

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The dsdperf benchmark is its own module; `go build ./...` skips it.
build-bench:
	$(GO) -C dsdperf vet ./... && $(GO) -C dsdperf build -o /dev/null ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The bounded differential fuzz runs, exactly as CI's test job runs them.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSolve$$' -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz '^FuzzQueryDensest$$' -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecomposeWithin$$' -fuzztime 30s ./internal/psicore
	$(GO) test -run '^$$' -fuzz '^FuzzPeelMatchesReference$$' -fuzztime 30s ./internal/psicore

# One iteration of each enumeration-, peel- and flow-kernel benchmark, exactly
# as CI's test job runs them: they must keep compiling and running
# (timings ungated).
bench-kernels:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/clique ./internal/core ./internal/psicore ./internal/graph ./internal/kcore ./internal/flownet ./internal/flow ./internal/gen ./internal/datasets

# Produce and validate the perf-trajectory artifact locally, exactly as
# CI's bench job does.
bench:
	@mkdir -p $(dir $(BENCH_OUT))
	$(GO) run ./cmd/dsdbench -run perfsuite -quick -json -out $(BENCH_OUT) -workers 4
	$(GO) run ./cmd/dsdbench -validate $(BENCH_OUT)

# Diff the fresh artifact against the previous trajectory point.
bench-compare: bench
	$(GO) run ./cmd/dsdbench -compare $(BENCH_PREV) $(BENCH_OUT)

# The observability smoke: the tracing/metrics/logging tests across the
# obs core, the engine, and the CLIs, under -race — including
# the wide-event query log suites and the /v1/querylog e2e — plus a
# traced perf-suite dump to prove the trace artifact still encodes.
obs:
	$(GO) test -race -count=1 ./internal/obs
	$(GO) test -race -count=1 -run 'TestMetrics|TestQueryTrace|TestSlowQuery|TestStatsAwait|TestObservabilityFlags|TestQueryLog|TestHTTPQueryLog' \
		./internal/service ./cmd/dsdd
	$(GO) test -race -count=1 -run 'TestValidateQueryLog' ./internal/expt
	$(GO) run ./cmd/dsdbench -run perfsuite -quick -div 8 -trace-out /tmp/dsd-trace-smoke.json

# Static analysis beyond vet, exactly as CI's lint job runs it. The
# tools are not vendored: when absent locally the target says so and
# succeeds, so `make check lint` works on a bare container while CI
# (which installs both) still enforces the gates.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (CI runs it)"; \
	fi

# Refresh the exported-API baseline (api/dsd.txt) after an intentional
# public-surface change. TestAPIStability fails any PR whose surface
# drifts from the committed baseline, so no exported symbol can be
# added, changed or removed silently.
api:
	$(GO) test -run TestAPIStability -count=1 . -args -update

# The non-test Go line count outside the dsdperf benchmark module: the
# size of the product code.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './dsdperf/*' -exec cat {} + | wc -l

clean:
	$(GO) clean ./...
