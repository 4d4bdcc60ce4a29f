GO ?= go

.PHONY: all build test race vet lint fmt check bench replay-profile experiments scale scale-baseline shuffle fuzz invariants soak bench-check traffic-baseline coldstart-baseline overload-baseline perfbench-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# shuffle randomises test execution order to surface ordering
# dependencies between tests.
shuffle:
	$(GO) test -shuffle=on ./...

# fuzz runs a short smoke of every native fuzz target (segment shapes,
# batch grouping, workload assignment, KV migration accounting, traffic
# spec parsing, tenant churn, tier specs).
fuzz:
	$(GO) test ./internal/sgmv -run '^$$' -fuzz FuzzSegmentSizes -fuzztime 10s
	$(GO) test ./internal/sgmv -run '^$$' -fuzz FuzzGroupByModel -fuzztime 10s
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzAssigner -fuzztime 10s
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzZipfAssigner -fuzztime 10s
	$(GO) test ./internal/kvcache -run '^$$' -fuzz FuzzKVMigration -fuzztime 10s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzTrafficSpec -fuzztime 10s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzTenantChurn -fuzztime 10s
	$(GO) test ./internal/lora -run '^$$' -fuzz FuzzTierSpec -fuzztime 10s
	$(GO) test ./internal/remote -run '^$$' -fuzz FuzzNetFaultPlan -fuzztime 10s

# vet runs the standard toolchain vet plus punica-vet, the repo's own
# analyzer suite (versionbump, scratchlife, detsim, lockorder,
# zeroalloc) enforcing the simulator's correctness contracts.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/punica-vet ./...

# invariants re-runs the test suite with runtime invariant checking
# compiled in (accounting ledgers, FCFS ordering, version monotonicity,
# leak-at-quiescence) under the race detector.
invariants:
	$(GO) test -tags punica_invariants -race ./...

# lint runs vet plus staticcheck when available (CI installs it; local
# setups without network skip it rather than fail).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# fmt fails if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# check is the tier-1 gate: formatting, static checks, build, tests.
check: fmt vet build test

# bench runs every Go benchmark once with allocation reporting — the
# hot-path smoke CI runs (the AllocsPerRun guards in the test suite are
# the hard gate; this surfaces ns/op and B/op trends).
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -benchmem ./...

# replay-profile profiles BenchmarkSimFleetReplay (60 replays of the
# sim-fleet deployment, one 4000-request trace each) and prints the
# cumulative CPU profile: the source of DESIGN.md §9.1's "Where the time
# went" table. The profile and test binary go to a fresh directory under
# $TMPDIR (default /tmp), never into the checkout.
replay-profile:
	@dir=$$(mktemp -d "$${TMPDIR:-/tmp}/replay-profile.XXXXXX") && \
	$(GO) test ./internal/cluster -run '^$$' -bench SimFleetReplay -benchtime 60x -benchmem \
		-cpuprofile "$$dir/cpu.out" -o "$$dir/cluster.test" && \
	$(GO) tool pprof -top -cum "$$dir/cluster.test" "$$dir/cpu.out" && \
	echo "replay-profile: profile and test binary in $$dir"

# experiments regenerates every paper table/figure as text.
experiments:
	$(GO) run ./cmd/punica-bench all

# scale runs the control-plane scale sweep (DESIGN.md §9) at the CI
# slice; the full grid (up to 256 GPUs x 1M requests) is
# `go run ./cmd/punica-bench scale`.
scale:
	$(GO) run ./cmd/punica-bench -scale-gpus 16,64,256 -scale-requests 100000 scale

# bench-check runs the four regression gates against their committed
# records in bench/: scale at the CI slice, sharded (-parallel 4), then
# traffic, coldstart and overload. Each gate's metrics and bound sit in
# cmd/punica-bench's experiment table; punica-bench without arguments
# lists them. traffic and coldstart are deterministic, so their gates
# are exact up to the bound; overload replays traffic through the live
# HTTP stack in wall time, so its bound is generous.
bench-check:
	$(GO) run ./cmd/punica-bench -scale-gpus 16,64,256 -scale-requests 100000 -parallel 4 \
		-check bench/BENCH_scale.json scale
	$(GO) run ./cmd/punica-bench -check bench/BENCH_traffic.json traffic
	$(GO) run ./cmd/punica-bench -check bench/BENCH_coldstart.json coldstart
	$(GO) run ./cmd/punica-bench -check bench/BENCH_overload.json overload

# perfbench-smoke vets and builds the end-to-end benchmark (perfbench/,
# its own module over this checkout), then runs each of its workloads
# for 3 s. A run whose output check fails, or that does not finish,
# fails the target.
perfbench-smoke:
	cd perfbench && $(GO) vet . && $(GO) build -o /dev/null .
	@for w in chat saturate sim-fleet; do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 | tail -n 1); \
		case "$$last" in \
		'{"correct":true'*) echo "perfbench $$w: correct" ;; \
		*) echo "perfbench $$w: $$last"; exit 1 ;; \
		esac; \
	done

# scale-baseline regenerates the committed baseline after intentional
# performance changes.
scale-baseline:
	$(GO) run ./cmd/punica-bench -scale-gpus 16,64,256 -scale-requests 100000 -parallel 4 \
		-json bench/BENCH_scale.json scale

# soak runs the everything-at-once scenario: two simulated hours of
# diurnal traffic with flash crowds, tenant churn, popularity drift,
# autoscaling and random GPU faults, fairness on (DESIGN.md §12).
soak:
	$(GO) run ./cmd/punica-bench soak

# traffic-baseline regenerates the committed fairness baseline after
# intentional scheduler or traffic-engine changes.
traffic-baseline:
	$(GO) run ./cmd/punica-bench -json bench/BENCH_traffic.json traffic

# coldstart-baseline regenerates the committed cold-start baseline after
# intentional tier-model or pre-distribution changes.
coldstart-baseline:
	$(GO) run ./cmd/punica-bench -json bench/BENCH_coldstart.json coldstart

# overload-baseline regenerates the committed overload baseline after
# intentional admission/serving changes.
overload-baseline:
	$(GO) run ./cmd/punica-bench -json bench/BENCH_overload.json overload
