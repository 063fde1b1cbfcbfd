# interstitial — build & reproduction targets

GO ?= go

.PHONY: all build test cover bench bench-sched bench-fed bench-kernel bench-omni fuzz paper extensions examples trace-demo clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Write the profile to a temp file and move it into place only on
# success, so a mid-run test failure can't leave a stale/truncated
# cover.out behind for the next `go tool cover` to misreport. The trap
# extends the same guarantee to interrupted runs (Ctrl-C, TERM): the temp
# file is removed on the way out instead of lingering in the worktree
# until the next invocation or `make clean` (which also removes it).
cover:
	@rm -f cover.out.tmp; \
	trap 'rm -f cover.out.tmp' INT TERM HUP; \
	if $(GO) test -coverprofile=cover.out.tmp ./...; then \
		mv cover.out.tmp cover.out; \
		$(GO) tool cover -func=cover.out | tail -1; \
	else \
		rm -f cover.out.tmp; exit 1; \
	fi

# Every benchmark (each regenerates a scaled-down table/figure), run
# BENCHCOUNT times with allocation stats, saved to the first free
# BENCH_<n>.txt so before/after comparisons (benchstat BENCH_1.txt
# BENCH_2.txt) survive the runs that produced them. The slot is claimed
# with noclobber (set -C: open(O_EXCL)) so two overlapping invocations
# can't pick the same number. The claim runs in a subshell: POSIX shells
# (dash) exit outright on a redirection error for a special builtin, which
# would kill the loop at the first occupied slot instead of advancing.
# Use BENCHTIME=5x etc. for longer iterations.
BENCHTIME ?= 1x
BENCHCOUNT ?= 3
bench:
	@n=1; while ! ( set -C; : > BENCH_$$n.txt ) 2>/dev/null; do n=$$((n+1)); done; \
	echo "writing BENCH_$$n.txt"; \
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -benchmem -count $(BENCHCOUNT) ./... | tee BENCH_$$n.txt

# Scheduling hot-path microbenchmarks only — kernel event loop, profile
# planning queries, the release-timeline upkeep and plan rebuild, and a
# full dispatcher pass at paper-scale queue depth.
# Runs in seconds, for quick iteration on scheduler changes; `make bench`
# records the whole suite to a BENCH_<n>.txt artifact.
bench-sched:
	$(GO) test -run '^$$' -bench '^(BenchmarkSimKernel|BenchmarkSchedulePass|BenchmarkProfileEarliestFit|BenchmarkReleaseChurn)' \
		-benchmem -count $(BENCHCOUNT) ./internal/profile/ ./internal/sched/ .

# Federation routing microbenchmarks — one routing decision and one
# steal-matching pass over a 64-shard fleet view. Guarded by the CI
# bench-regression gate.
bench-fed:
	$(GO) test -run '^$$' -bench '^(BenchmarkFederationRoute|BenchmarkFederationSteal)$$' \
		-benchmem -count $(BENCHCOUNT) ./internal/federation/

# Kernel microbenchmarks — the raw event loop, churny cancellation, the
# chained same-instant drain, and the two intra-run-parallelism cells the
# sharded kernel work targets. All five sit in the CI benchgate guarded
# set; this target is the local loop for kernel changes.
bench-kernel:
	$(GO) test -run '^$$' -bench '^(BenchmarkSimKernel$$|BenchmarkSimKernelChurn$$|BenchmarkScheduleBatch$$|BenchmarkIntraCellShards$$|BenchmarkAblationJobWidth$$)' \
		-benchmem -count $(BENCHCOUNT) .

# Omniscient packing end to end: one uncached advisor sweep on a warm lab
# (the cold-plan path), one PlanOmniscient call, and a Table 2
# regeneration. Not in the CI benchgate set: at -benchtime 1x the packing
# benchmark spreads too widely for a 15% gate.
bench-omni:
	$(GO) test -run '^$$' -bench '^BenchmarkAdvisorSweep$$' -benchmem -count $(BENCHCOUNT) ./internal/advisor/
	$(GO) test -run '^$$' -bench '^(BenchmarkOmniscientPacking|BenchmarkTable2)$$' -benchmem -count $(BENCHCOUNT) .

# Each fuzz target gets its own run (go test allows one -fuzz at a time).
fuzz:
	$(GO) test -fuzz FuzzEventHeap -fuzztime 30s ./internal/sim/
	$(GO) test -fuzz FuzzPackProject -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzRead -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzMachineByName -fuzztime 30s .
	$(GO) test -fuzz FuzzRoutePolicy -fuzztime 30s ./internal/federation/
	$(GO) test -fuzz FuzzScheduleConfig -fuzztime 30s ./internal/faults/
	$(GO) test -fuzz FuzzAdvisorRequest -fuzztime 30s ./internal/advisor/
	$(GO) test -fuzz FuzzMachineReleases -fuzztime 30s ./internal/machine/

# Regenerate the paper at full scale (~4 min) and the extension studies.
paper:
	$(GO) run ./cmd/experiments

extensions:
	$(GO) run ./cmd/experiments extensions

examples:
	@for e in quickstart paramsweep capacityplan omniscient preemption swfreplay; do \
		echo "=== examples/$$e ==="; $(GO) run ./examples/$$e || exit 1; done

# Smoke the decision-tracing pipeline end to end: trace a scaled-down
# Table 2 regeneration with request spans and a provenance manifest,
# validate the JSONL export (runs, events, AND spans) against the schema,
# render the tracescope and span reports, and exercise the Perfetto
# export. The trace_demo.* artifacts are gitignored.
trace-demo:
	$(GO) run ./cmd/experiments -scale 0.05 -workers 4 -trace trace_demo.jsonl \
		-spans trace_demo.spans.jsonl -manifest trace_demo.manifest.json table2
	$(GO) run ./cmd/tracescope -check trace_demo.jsonl
	$(GO) run ./cmd/tracescope trace_demo.jsonl
	$(GO) run ./cmd/tracescope -check trace_demo.spans.jsonl
	$(GO) run ./cmd/tracescope -spans trace_demo.spans.jsonl
	grep -q '"digest"' trace_demo.manifest.json
	$(GO) run ./cmd/birminator -machine Ross -scale 0.02 -interstitial-cpus 8 \
		-trace trace_demo.chrome.json -trace-format chrome

# Coverage profiles (cover*.out, *.coverprofile) are build artifacts:
# gitignored, cleaned here, and the CI "No committed build artifacts"
# step fails if one is ever tracked.
clean:
	rm -f cover.out cover.out.tmp cover*.out coverage*.out *.coverprofile \
		BENCH_*.txt trace_demo.*
