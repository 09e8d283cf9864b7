# Development entry points. Everything is stdlib-only Go; no external
# dependencies are fetched.

GO ?= go

.PHONY: all build vet fmt-check fma-check lint lint-sarif verify-plans verify-plans-sarif alloc-guard test race cover bench perf-smoke loc chaos faults fuzz mega repro repro-check examples clean

all: build lint verify-plans test

build:
	$(GO) build ./...
	$(GO) vet ./...

vet:
	$(GO) vet ./...

# Fails, listing the files, if any Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Fails, listing the instructions, if the arm64 compiler fuses a
# multiply-add in the packages that advance virtual time or print its
# statistics: a fused product rounds once, so arm64 would print other
# numbers than amd64. Wrap the product in an explicit float64(...) to
# keep it apart. Cross-compiles offline.
fma-check:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/netmodel ./internal/mpirt ./internal/harness ./internal/perfmodel 2>&1) || { echo "$$out"; exit 1; }; \
	f=$$(echo "$$out" | grep -E '\bF(N?)M(ADD|SUB)D\b'); test -z "$$f" || { echo "fma-check: fused multiply-adds on arm64:"; echo "$$f"; exit 1; }

# Static invariant analyzers (DESIGN.md §8): determinism,
# errdiscipline, tagdiscipline, vtclean, bufferpool and deadlockshape.
# The run covers the whole module including internal/lint itself;
# full-suite runs also flag stale suppression directives.
# Exit 1 = findings, 2 = tool error.
lint:
	$(GO) run ./cmd/nbr-lint -dir .

# Machine-readable lint for code-scanning upload.
lint-sarif:
	$(GO) run ./cmd/nbr-lint -dir . -sarif > nbr-lint.sarif; test $$? -ne 2

# Static plan verifier (DESIGN.md §12): prove delivery completeness,
# matching discipline, rendezvous deadlock-freedom, and perfmodel load
# bounds for every algorithm (incl. the avoid-set repair plans) over
# the conformance shape matrix — symbolically, without executing.
# Exit 1 = invariant findings, 2 = tool error.
verify-plans:
	$(GO) run ./cmd/nbr-verify

# Machine-readable plan verification for code-scanning upload.
verify-plans-sarif:
	$(GO) run ./cmd/nbr-verify -sarif > nbr-verify.sarif; test $$? -ne 2

# The hot-path contract: every runtime hot root (matching, probes,
# the error-returning sends and receives, the pool and snapshots, the
# barrier, park/resume) and the plan cache's hit path must hold 0
# allocs/op once warm (also part of `make test`).
alloc-guard:
	$(GO) test -count=1 -run ZeroAlloc ./internal/mpirt/ ./internal/plancache/

test:
	$(GO) test ./...

# The race detector is the threaded engine's job: the only driver with
# real host concurrency (rank bodies run in parallel; every runtime call
# holds the one runtime mutex), kept as the oracle for this and the
# plain differential.
race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Conformance, per family — the matrix (chaos) and the faults: one
# chaos sweep — every case against its ground truth under adversarial
# schedules and injected faults; chaos is a driver of its own and takes
# no engine — plus one plain differential, threaded vs event, the only
# place the engines can differ. Failing chaos seeds print a
# `nbr-chaos [-faults] -case ... -replay N` reproduce line.
chaos:
	$(GO) run ./cmd/nbr-chaos -seeds 10
	$(GO) run ./cmd/nbr-chaos -engine both -seeds 1

# The fault family: fail-stop (every algorithm × crash-before/mid/
# agent/leader/multi/raw), then link faults (every algorithm × {down
# NIC/port/uplink, partitions, degraded fabrics} × before/mid/raw).
faults:
	$(GO) run ./cmd/nbr-chaos -faults -seeds 10
	$(GO) run ./cmd/nbr-chaos -faults -engine both -seeds 10

# Brief fuzz of the MatrixMarket parser and the divergence oracles
# (plain: threaded vs event; chaos: a seed against its own replay;
# longer runs: go test -fuzz with -fuzztime of your choice).
fuzz:
	$(GO) test -fuzz=FuzzReadMatrixMarket -fuzztime=20s ./internal/sparse
	$(GO) test -fuzz=FuzzEngineDivergence -fuzztime=20s ./internal/conformance
	$(GO) test -fuzz=FuzzFaultDivergence -fuzztime=20s ./internal/conformance

# Mega-scale sweep: ≥100k ranks of Moore neighborhood with phantom
# payloads, heap statistics and per-phase wall included; the last line
# is the whole run's wall and peak resident set (measured on two cores:
# 2.6–3.4 s and 523–644 MiB, most of it the DH pattern, the three cells'
# compiled plans and slot tables, and the running cell's per-rank state;
# the graph itself is O(edges) and builds in ~50 ms).
mega:
	$(GO) run ./cmd/nbr-bench -fig mega

# One benchmark per paper table/figure plus ablations (CI scale), the
# mpirt hot-path micro-benchmarks, one real-payload interpreter pass per
# algorithm at the rsg216-real shape, plan construction (BuildCN at the
# rsg540-lat shape, BuildPlan dh/cn at the planner's 64 ranks), the slot
# table of a fresh rsg540-lat plan (PlanSlots), the plan path (pattern
# build at the moore10k-scale and rsg540-lat shapes, plan verify of a
# fresh plan at those and the planner's:
# BuildMoore10k, BuildER540, VerifyMoore10k, VerifyER540,
# VerifyPlanner64), one
# harness.Measure per algorithm at the same two shapes (MeasureMoore10k,
# MeasureER540: simulated msgs/s and allocs/msg, each as Measure runs it
# and again -unhinted — the passes' slot hints stripped, every message
# through the mailbox's hashed lists: static matching's after and
# before), netmodel.Transfer over one, three and five hops and a degraded
# uplink, the plan cache's hit path, alone and from every -cpu client
# over 2 000 resident keys, and its two-client Zipf churn at a quarter
# budget (GetHit, GetHitParallel, ChurnZipf: ns/op and hit rate), then the
# fault-cost tables printed by nbr-bench.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .
	$(GO) test -bench=. -benchmem ./internal/mpirt/
	$(GO) test -run '^$$' -bench='InterpReal|BuildCN$$|BuildPlan|PlanSlots' -benchmem ./internal/collective/
	$(GO) test -run '^$$' -bench='Build|Verify' -benchmem ./internal/pattern/ ./internal/planverify/
	$(GO) test -run '^$$' -bench=Measure -benchmem ./internal/harness/
	$(GO) test -run '^$$' -bench=Transfer -benchmem ./internal/netmodel/
	$(GO) test -run '^$$' -bench='GetHit|Churn' -benchmem ./internal/plancache/
	$(GO) run ./cmd/nbr-bench -fig recovery,degradation

# The repo benchmark (BENCHMARK.json) at smoke scale: all four workloads
# must run end to end with no failed operation.
perf-smoke:
	@out=$$($(GO) run ./cmd/nbr-perf -scale smoke) || { echo "$$out"; exit 1; }; echo "$$out"; \
	test $$(echo "$$out" | grep -c 'failed_share 0/') -eq 4

# Non-test Go lines per package and in total, the root package (the
# façade) included (testdata fixtures are not product code: the rows
# sum to the total), so "net LOC went down" is a command. Fails when the
# total exceeds the ceiling below: a change that grows the code raises
# that number in its own diff.
loc:
	@for d in . internal/* cmd/*; do printf '%6d %s\n' \
		$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; done; \
	t=$$({ find . -maxdepth 1 -name '*.go' ! -name '*_test.go'; \
		find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'; } | xargs cat | wc -l); \
	printf '%6d total\n' $$t; \
	test $$t -le 19936 || { echo "loc: $$t lines exceed the ceiling of 19936"; exit 1; }

# Regenerate results/medium/ (~35 s on two vCPUs): Fig. 4 at the three
# Fig. 5 communicator sizes, then every other medium-scale file.
repro:
	for n in 3 7 15; do $(GO) run ./cmd/nbr-bench -fig 4 -scale medium -nodes $$n -out results/medium || exit 1; done
	$(GO) run ./cmd/nbr-bench -fig 2,6,7,8,loadbalance,variance -scale medium -out results/medium

# Committed results/ files that take seconds to regenerate must still be
# what the code prints, outside the host-time DH/CN plan columns
# (`go test ./cmd/nbr-bench` covers seven more). About 40 s.
repro-check:
	@mask='{ if (NF == 12 && $$6 ~ /^\(K=/) { $$9 = "-"; $$10 = "-" } $$1 = $$1; print }'; t=$$(mktemp); s=0; \
	for c in 'fig8_overhead_540:-fig 8 -nodes 15 -rps 18' 'fig4_540:-fig 4 -nodes 15 -rps 18' \
		'fig5_scaling:-fig 5 -nodes 15 -rps 18' 'fig6_moore_2048:-fig 6 -scale full'; do \
		$(GO) run ./cmd/nbr-bench $${c#*:} | awk "$$mask" > $$t && \
		awk "$$mask" results/$${c%%:*}.txt | diff $$t - || { echo "repro-check: results/$${c%%:*}.txt differs"; s=1; }; \
	done; rm -f $$t; exit $$s

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/moorehalo
	$(GO) run ./examples/spmmdemo
	$(GO) run ./examples/alltoalldemo

clean:
	rm -f test_output.txt bench_output.txt
