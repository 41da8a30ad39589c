# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench bench-json bench-load bench-fleet bench-fountain bench-replay cover figures paperscale fuzz lint lint-json vulncheck verify clean

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# The repo's own invariant analyzers (planmut, framemut, gfarith,
# lockscope, errwrap, lockorder, goroleak, nondet, hotalloc) plus the
# selected go vet passes, gated on the findings baseline; see DESIGN.md
# §8 and §13.
lint:
	go run ./cmd/mobweblint -baseline lint.baseline ./...

# Machine-readable findings report (the CI artifact). Runs without the
# baseline so the report is the complete picture, and without vet (vet
# has no JSON mode); always exits 0 — the gate is `make lint`.
lint-json:
	@mkdir -p results
	go run ./cmd/mobweblint -json -vet=false ./... > results/mobweblint.json || true
	@echo "wrote results/mobweblint.json"

# Known-vulnerability scan. Best effort: govulncheck is an external tool
# and needs network access for its database, so its absence (or an
# offline environment) warns instead of failing the gate.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "warning: govulncheck failed (offline vulndb?); continuing"; \
	else \
		echo "warning: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The CI gate: static checks plus the full suite under the race detector
# (the planner's concurrent plan cache and core's lazy parity encoding
# are exercised by dedicated -race stress tests).
verify: lint vulncheck
	go vet ./...
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# Full-suite statement coverage with a regression floor: the per-package
# summary and the total land in results/coverage.txt, and the target
# fails if total statement coverage drops below COVER_FLOOR percent.
# Override the floor with `make cover COVER_FLOOR=85`.
COVER_FLOOR ?= 78

cover:
	@mkdir -p results
	go test -coverprofile=coverage.out ./... > results/coverage.txt
	@go tool cover -func=coverage.out | tail -n 1 >> results/coverage.txt
	@cat results/coverage.txt
	@go tool cover -func=coverage.out | tail -n 1 | \
		awk -v floor=$(COVER_FLOOR) '{ sub(/%/, "", $$3); \
		if ($$3 + 0 < floor) { printf "FAIL: coverage %.1f%% below floor %s%%\n", $$3, floor; exit 1 } \
		printf "coverage %.1f%% meets floor %s%%\n", $$3, floor }'

# Erasure-codec kernel matrix (kernels × M × packet size, plus the
# parallel worker sweep): machine-readable BENCH_erasure.json at the repo
# root and the human table under results/. See DESIGN.md §10.
bench-json:
	go run ./cmd/erasurebench -json BENCH_erasure.json -txt results/erasure-kernel-bench.txt

# Open-loop load generator against the frame cache: 1000 Zipf-distributed
# clients over 10 documents, cached pass vs cache-disabled baseline, with
# the acceptance gates (hit rate, encode/marshal work reduction) checked
# in-process. BENCH_load.json at the repo root, human table under
# results/. See DESIGN.md §12.
bench-load:
	go run ./cmd/mrtload -json BENCH_load.json -txt results/framecache-bench.txt -min-hit-rate 0.9

# Sharded-fleet robustness run: a front over three in-process replicas,
# Zipf load with per-packet pacing so streams are long enough for the
# seeded mid-run kill of the hottest replica to land mid-stream. Gates:
# zero outright failures among admitted fetches, zero byte mismatches
# against the pre-kill reference, and a completed-fetch floor.
# BENCH_fleet.json at the repo root, human table under results/. See
# DESIGN.md §14.
bench-fleet:
	go run ./cmd/mrtload -fleet 3 -clients 200 -docs 8 -doc-kb 12 \
		-fleet-delay 2ms -concurrency 32 -seed 1 -min-completed 0.95 \
		-json BENCH_fleet.json -txt results/fleet-bench.txt

# Rateless fountain codec vs adaptive-γ Vandermonde across a channel
# corruption grid (α 0.05–0.4), plus the single-stream broadcast fan-out
# work ratio at 32 subscribers. Gated: every fountain fetch must finish
# in one round, mean reception overhead ≤ 15%, fountain must move fewer
# bytes than Vandermonde at α ≥ 0.2, and broadcast work must stay under
# 2× the single-subscriber cost. BENCH_fountain.json at the repo root,
# human table under results/. See DESIGN.md §15.
bench-fountain:
	go run ./cmd/erasurebench -fountain -gate \
		-json BENCH_fountain.json -txt results/fountain-bench.txt

# Deterministic session-replay harness for the persistent packet store
# and the speculative prefetcher: scripted browse/skim/idle/kill-restart
# sessions replayed twice (store+prefetch off vs on) over the identical
# seeded workload. Gates: zero packets refetched after restart, zero
# resume bytes for fully-read documents, byte-identical bodies, and
# foreground p99 parity (on ≤ 1.10× off). BENCH_replay.json at the repo
# root, the generated trace under results/. See DESIGN.md §16.
bench-replay:
	go run ./cmd/mrtreplay -json BENCH_replay.json -trace-out results/replay-trace.json

# Regenerate every table and figure at the default reduced scale.
figures:
	go run ./cmd/mrtfigures -exp all

# Selected Figure 4 cells at the paper's full 200x50 workload.
paperscale:
	MOBWEB_PAPERSCALE=1 go test ./internal/sim -run TestPaperScaleSpotChecks -v

fuzz:
	go test -fuzz=FuzzKernels -fuzztime=30s ./internal/gf256
	go test -fuzz=FuzzParseHTML -fuzztime=30s ./internal/markup
	go test -fuzz=FuzzParseXML -fuzztime=30s ./internal/markup
	go test -fuzz=FuzzUnmarshal -fuzztime=30s ./internal/packet
	go test -fuzz=FuzzRequestDecode -fuzztime=30s ./internal/transport
	go test -fuzz=FuzzFountainRoundtrip -fuzztime=30s ./internal/fountain
	go test -fuzz=FuzzStoreRecover -fuzztime=30s ./internal/store
	go test -fuzz=FuzzReceiverIncremental -fuzztime=30s ./internal/core

clean:
	go clean ./...
