# Reproduction targets for the paper's evaluation. `make figures` writes
# the 13 deterministic data series (Fig. 3-6, the five ablations and the
# churn sweep) into results/; expect about a minute on 2 cores.
# `make ci` runs the same gate as .github/workflows/ci.yml.

GO ?= go

.PHONY: all build fmt lint test bench-module bench-run race bench bench-smoke bench-gate ci fuzz-smoke fault-matrix faults trace churn bandwidth soak soak-smoke figures figures-check clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "files need gofmt:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Repo-specific invariants enforced by the stdlib-only analyzer: the
# syntactic checks (determinism, lock discipline, telemetry and API
# hygiene — DESIGN.md §8d) plus the interprocedural lockorder, goroleak
# and protostate checks over the shared whole-program function index
# (§8i). Formatting rides along so `make lint` is the complete style
# gate. CI budgets the run at 3 minutes wall-clock (lint-timing step).
lint: fmt
	$(GO) run ./cmd/bwc-vet ./...

test:
	$(GO) test ./...

# The benchmark harness is its own module (perfbench/go.mod points
# bwcluster at this checkout), so `go build ./...` and `go test ./...`
# from the root skip it. This vets and tests it against the current
# tree, so a change to a name it calls fails here, not in a benchmark
# run. About 5 s.
bench-module:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Runs the benchmark itself, not only its tests: one short untraced run
# per workload, each of which must end with a report line saying
# "correct":true and "failed":0. Untraced, because a 1 s traced run
# fails its own thin-tail percentile check by design. The first build
# takes about 30 s, then each workload about 6 s on 2 vCPUs.
bench-run:
	@for w in central decentral; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || exit 1; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$w: $$last"; \
		case "$$last" in \
		*'"correct":true'*'"failed":0'[,}]*) ;; \
		*) echo "bench-run: the $$w run is not correct with 0 failed" >&2; exit 1 ;; \
		esac; \
	done

race:
	$(GO) test -race ./...

# Coverage-guided fuzzing of every Algorithm 1 answer path (direct scan,
# sequential- and parallel-built Index, per-k staircase, per-l ladder)
# against each other, of the overlay's local search (a peer's ladder
# table, and the scan a stale table falls back to) against a copied
# clustering space, and of stats.Percentile's selection against
# sort-then-interpolate; `go test` alone only replays the seed corpora.
# The three share the 20 s the CI step has always had.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFindClusterRepresentations -fuzztime 7s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzQueryHopMatchesMaterialized -fuzztime 7s ./internal/overlay
	$(GO) test -run '^$$' -fuzz FuzzPercentile -fuzztime 6s ./internal/stats

bench:
	$(GO) test -bench=. -benchmem ./...

bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# Performance gate (DESIGN.md §8g): the paired benchmarks as a
# 10-sample, multi-GOMAXPROCS matrix, checked by bwc-benchgate on the raw
# `go test -bench` text — the index sweep >= 2x cheaper than the row
# scan, the parallel forest build not slower than sequential beyond noise
# at the host's hardware concurrency, tracing-off not slower
# than tracing-on, incremental repair >= 10x cheaper than a rebuild, the
# cached fleet query >= 5x cheaper than the proxied one, ledger-on within
# 3% of ledger-off. The gate fails closed on a missing pair or a failed
# benchmark, so the pipe needs no pipefail; the raw text is kept in
# bench-matrix.txt for benchstat.
bench-gate:
	$(GO) test -run '^$$' -benchmem -count 10 -cpu 1,2,4,8 -benchtime 50ms -timeout 30m \
		-bench 'IndexBuild|BuildForestParallel|QueryTracing|QueryLedger|IncrementalRemoveAdd|FleetQueryCache' \
		./internal/cluster ./internal/predtree ./internal/runtime ./internal/fleet 2>&1 | \
		tee bench-matrix.txt | $(GO) run ./cmd/bwc-benchgate

# Fault-matrix gate: convergence under seeded drop/partition schedules
# and the TCP loopback split, under the race detector. `make race`
# already covers these; CI runs them as their own job so a transport
# regression is named in the job list, and this target mirrors that job.
fault-matrix:
	$(GO) test -race -count=1 -run 'TestFault|TestPartition|TestTCP|TestChan|TestChurn' ./internal/transport/ ./internal/runtime/ ./internal/membership/

# Serving-tier soak: the zipf workload generator drives the sharded
# fleet — 3 shard processes behind the router, one replica killed
# halfway through — and prints the p50/p99/shed/hit summary (DESIGN.md
# §8j). The smoke variant is CI-sized (well under a minute) and writes
# the per-second series for artifact upload; the full target is the
# paper-scale run.
SOAK_QUERIES ?= 1000000
SOAK_HOSTS ?= 64
soak: build
	$(GO) run ./cmd/bwc-fleet -mode soak -queries $(SOAK_QUERIES) -hosts $(SOAK_HOSTS) \
		-shards 3 -series results/soak_series.txt

soak-smoke: build
	$(GO) run ./cmd/bwc-fleet -mode soak -queries 20000 -hosts 32 \
		-shards 3 -series results/soak_series.txt

# The full CI gate, in the workflow's order: lint (gofmt + bwc-vet)
# first, then build+vet, tests, the benchmark module and one short run
# of the benchmark, the race detector, the fuzz smoke, the
# fault matrix, the churn soak, the serving-tier soak smoke,
# the figure byte-identity check, one iteration of every bench, and the
# benchmark performance gate.
ci: lint build test bench-module bench-run race fuzz-smoke fault-matrix churn soak-smoke figures-check bench-smoke bench-gate

# The deterministic series, each written to FIGDIR/<name>.txt by bwc-sim
# with the flags SERIES_<name>: the seven Fig. 3-6 series, the five
# ablations and the churn sweep. bwc-sim's stdout is a pure function of
# its flags and seed (the wall-clock trailer goes to stderr, and the
# fan-out over independent series never changes results), so the files
# are byte-comparable across runs, hosts and GOMAXPROCS settings.
FIGDIR ?= results
SERIES = fig3_hp fig3_umd fig4_hp fig4_umd fig5_hp fig5_umd fig6 \
	ablation_ncut ablation_trees ablation_drift ablation_construction ablation_sword \
	churn_series
SERIES_fig3_hp = -fig 3 -dataset hp
SERIES_fig3_umd = -fig 3 -dataset umd
SERIES_fig4_hp = -fig 4 -dataset hp -scale 0.5
SERIES_fig4_umd = -fig 4 -dataset umd -scale 0.3
SERIES_fig5_hp = -fig 5 -dataset hp
SERIES_fig5_umd = -fig 5 -dataset umd
SERIES_fig6 = -fig 6 -scale 0.4
SERIES_ablation_ncut = -ablation ncut -scale 0.3
SERIES_ablation_trees = -ablation trees -scale 0.3
SERIES_ablation_drift = -ablation drift
SERIES_ablation_construction = -ablation construction
SERIES_ablation_sword = -ablation sword
SERIES_churn_series = -series churn
define newline


endef
figures: build
	mkdir -p $(FIGDIR)
	$(foreach s,$(SERIES),$(GO) run ./cmd/bwc-sim $(SERIES_$(s)) > $(FIGDIR)/$(s).txt$(newline))

# Behaviour gate for the simulation and protocol code: regenerate all 13
# series into a temporary directory and require each to match the
# committed results/ byte for byte.
figures-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(MAKE) --no-print-directory figures FIGDIR="$$tmp" && \
	status=0 && for f in $(SERIES); do diff -u "results/$$f.txt" "$$tmp/$$f.txt" || status=1; done && \
	if [ $$status -eq 0 ]; then echo "figures-check: $(words $(SERIES)) series byte-identical"; fi && \
	exit $$status

# Fault-tolerance series: convergence time and settled query agreement
# vs gossip loss rate and partition length (EXPERIMENTS.md).
faults: build
	$(GO) run ./cmd/bwc-sim -series faults > results/fault_series.txt

# Traced-query series: hop counts, trace completeness/gap rate and
# gossip-age watermarks vs injected loss, with the flight-recorder ring
# dumped alongside (EXPERIMENTS.md).
trace: build
	$(GO) run ./cmd/bwc-sim -series trace -flight-dump results/trace_flight.txt > results/trace_series.txt

# Bandwidth-ledger series: per-link delivered bytes per phase window
# joined against the prediction forest's link bandwidth, with the
# ledger-vs-delivered-counter reconciliation printed in the header
# (EXPERIMENTS.md). CI's fault-matrix job uploads the series file.
bandwidth: build
	$(GO) run ./cmd/bwc-sim -series bandwidth > results/bandwidth_series.txt

# Churn gate: the seeded membership soak under the race detector (the
# async runtime converging through joins, leaves and failures to the
# synchronous fixed point). The churn measurement sweep — repair cost vs
# from-scratch rebuild at 10-50% turnover (EXPERIMENTS.md) — is one of
# the `figures` series. LOCKCHECK=1 additionally compiles the dynamic
# lock-order shadow assertion (internal/lockcheck) into the soak, so an
# inverted acquisition panics at its first occurrence instead of
# wedging some later run; CI's fault-matrix job runs the soak once this
# way.
LOCKTAGS = $(if $(LOCKCHECK),-tags lockcheck,)
churn: build
	$(GO) test -race -count=1 $(LOCKTAGS) -run 'TestChurn' ./internal/membership/ ./internal/runtime/

# Removes the untracked outputs only; the 13 series under results/ are
# committed (figures-check diffs against them).
clean:
	rm -f results/fault_series.txt results/trace_series.txt results/trace_flight.txt \
		results/bandwidth_series.txt results/soak_series.txt bench-matrix.txt coverage.out
