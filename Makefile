# Single source of truth for build/test commands: CI invokes these
# targets, so passing `make ci` locally means CI passes too.

GO ?= go

# Recipes use pipes (bench-json); without pipefail a failing `go test`
# would be masked by the downstream consumer's exit status and CI would
# upload a corrupt baseline.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# Pinned so benchmark JSON documents are comparable across CI runs.
BENCHTIME ?= 1x
BENCH_OUT ?= BENCH_PR.json
# Pinned staticcheck release; `go run` executes exactly this version.
STATICCHECK_VERSION ?= 2025.1
# Pinned govulncheck release for the advisory CI job.
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test test-timing perfbench-check race race-phase4 bench bench-json bench-compare e2e-netstore e2e-chaos fmt vet staticcheck lint vulncheck docs ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Timing-sensitive tests: oracles that race a concurrent publisher or
# a concurrent iteration (replica staleness windows, queries during
# Iterate, delta scheduling, the phase-5 drain-cut retry). Twenty
# uncached runs each, so a flake of this class fails every CI run
# instead of now and then.
test-timing:
	$(GO) test -count=20 -run 'TestReplicaStalenessMatrix|TestReplicaTombstoneStaleness' ./internal/netstore
	$(GO) test -count=20 -run 'TestQueriesDuringIterate|TestDeltaStalenessScheduling|TestPartialDrainFailureKeepsUpdates' ./internal/core

# The benchmark harness is its own module (perfbench/, `replace knnpc
# => ../`), so the root `go build ./...` never compiles it. Vet and
# test it here, so an API change that breaks the harness fails CI
# instead of the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Focused, uncached -race pass over the phase-4 concurrency surface:
# the sharded-tape executor and ownership layer at workers=4, the
# executor error-path drains, DiskTable Close-vs-ShardAhead, the
# emulated device's debt accounting, and mid-run cancellation. `race`
# already runs these once; this target re-runs them with -count=1 so
# CI exercises the racy interleavings fresh on every push.
race-phase4:
	$(GO) test -race -count=1 \
		-run 'Worker|Sharded|Parallel|Split|Cancel|Close|Device|Pipelined|MidTape|Commit|NetStore|NetOwner|Lease|Torn|Shard' \
		./internal/pigraph ./internal/core ./internal/tuples ./internal/disk ./internal/netstore ./internal/lint

# End-to-end proof of the network state store: launches cmd/statestore
# with 2 shards, runs knnrun once in-process and once with -netstore on
# the same preset topology, and diffs the emitted graphs byte for byte.
e2e-netstore:
	./scripts/e2e_netstore.sh

# End-to-end proof of the robustness stack: a run against shards under
# a seeded -faults plan must emit a byte-identical graph (and the plan
# digest must reproduce across boots), and a run that loses a shard to
# SIGKILL mid-iteration must heal through snapshot+journal recovery and
# still match the fault-free reference byte for byte.
e2e-chaos:
	./scripts/e2e_chaos.sh

# Every benchmark at the pinned $(BENCHTIME) — by default one pass, a
# smoke run proving the harness works; override BENCHTIME for numbers.
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) ./...

# Full benchmark suite at the pinned -benchtime, captured as JSON
# (name, ns/op, allocs, custom op-count metrics). CI uploads the file
# as an artifact on every run, building the bench trajectory.
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -benchmem ./... | $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# Markdown comparison of $(BENCH_OUT) against BASELINE (a bench-json
# document from main); exits non-zero on >2x regressions of the
# emulated-disk phase-4 benchmarks.
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(BASELINE) $(BENCH_OUT)

# Fails when any file needs reformatting, printing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Runs the pinned staticcheck via `go run`, which resolves the exact
# release from the module cache (downloading it on first use) — the
# target can no longer silently skip when no binary is on PATH.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# knnlint: the repository's own static-analysis suite (internal/lint,
# driven by cmd/knnlint) — six analyzers enforcing the determinism,
# locking, and protocol invariants documented in docs/LINTING.md. Needs
# only the Go toolchain, so it runs everywhere, offline included.
lint:
	$(GO) run ./cmd/knnlint ./...

# Known-vulnerability scan at a pinned govulncheck release. Advisory:
# CI runs it in a non-blocking job so a fresh CVE in a dependency
# surfaces without turning every PR red.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Documentation lints: every exported symbol in the core packages must
# carry a doc comment (scripts/doccheck), and every cmd/ binary flag
# must appear in docs/OPERATIONS.md (scripts/check_flags.sh). The
# PROTOCOL.md op-table sync check runs with the normal test suite.
docs:
	./scripts/doccheck.sh
	./scripts/check_flags.sh

ci: build fmt vet staticcheck lint race race-phase4 test-timing perfbench-check e2e-netstore e2e-chaos docs bench
