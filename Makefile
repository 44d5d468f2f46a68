# Development entry points. `make ci` is what the CI workflow runs.

GO ?= go

.PHONY: tier1 vet lint race fuzz crashtest perfbenchtest bench hotpath wirebench telemetrybench scenarios scenariobench scalebench scalereport resumebench ci

# Tier-1 verify (see ROADMAP.md): must stay green on every commit.
# -shuffle=on randomizes test order so hidden inter-test coupling fails
# loudly instead of riding on declaration order.
tier1:
	$(GO) build ./...
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI installs the pinned staticcheck; locally
# the target degrades to a notice when the binary is absent so `make ci`
# does not require network access.
STATICCHECK ?= staticcheck
lint:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# The engine pool, sharded aggregation, transport goroutines (including
# the per-session broadcast writers), telemetry registry, and chaos
# harness are the concurrency surface; run them under the race detector
# (this includes the chaos fault-injection suite and the concurrent
# /metrics scrape test).
race:
	$(GO) test -race ./internal/fl/ ./internal/transport/ ./internal/chaos/ ./internal/wire/ ./internal/telemetry/

# Fuzz smoke: a short randomized pass over each decode target on top of
# the checked-in corpus (go only runs one -fuzz target per invocation).
fuzz:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 10s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzSparseDecode$$' -fuzztime 10s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzServerDecode$$' -fuzztime 10s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzClientDecode$$' -fuzztime 10s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzDurableDecode$$' -fuzztime 10s
	$(GO) test ./internal/checkpoint/ -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 10s
	$(GO) test ./internal/recon/ -run '^$$' -fuzz '^FuzzReconDecode$$' -fuzztime 10s

# Crash drill: build the real apf-server binary, SIGKILL it mid-round via
# a scripted chaos fault, restart it against the same checkpoint
# directory, and require the final weights to be bit-identical to an
# uninterrupted run.
crashtest:
	APF_CRASHTEST=1 $(GO) test ./internal/transport/ -run '^TestCrashRealSIGKILL$$' -v -timeout 8m

# The round-level benchmark (perfbench/) is a Go module of its own that
# imports wire and transport through a replace directive, so tier1 does
# not compile it; vet and test it here (~30s on 2 cores).
perfbenchtest:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Quick look at the round-critical benchmarks.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkManagerRound$$|BenchmarkAggregate$$' -benchmem .

# Regenerate the tracked hot-path perf report (-buildvcs stamps the
# commit into it). The run fails when the exact aggregation round exceeds
# its gated multiple of the serial float arm timed alongside it.
hotpath:
	$(GO) run -buildvcs=true ./cmd/apfbench -hotpath BENCH_hotpath.json

# Regenerate the tracked wire report: encode-once broadcast cost across
# client counts and the sparse-codec arm across frozen fractions
# (-buildvcs stamps the commit into it). The run itself enforces the
# regression gate: at frozen_frac 0.95 the lossless sparse reduction must
# stay within 5% of the geometric ideal 20x, or the target fails.
wirebench:
	$(GO) run -buildvcs=true ./cmd/apfbench -wire BENCH_wire.json

# Regenerate the tracked telemetry-overhead report (instrumented vs nop
# registry on the steady-state manager round).
telemetrybench:
	$(GO) run ./cmd/apfbench -telemetry BENCH_telemetry.json

# Scenario smoke: the CI subset of the adversary × network × data matrix,
# race-enabled, over the real TCP transport. The run enforces the
# detection gates (scale/noise TPR = 1, FPR = 0, honest-cell accuracy
# floor) and fails on any violation. The smoke report is untracked; the
# tracked full-matrix report is regenerated by scenariobench.
scenarios:
	$(GO) run -race ./cmd/apfbench -scenarios BENCH_scenarios_smoke.json -matrix smoke

# Regenerate the tracked full-matrix scenario report (60 matrix cells +
# 9 defense-ablation cells, 2 trials; same-seed deterministic in every
# scored quantity — see EXPERIMENTS.md for the one wire-byte caveat).
scenariobench:
	$(GO) run ./cmd/apfbench -scenarios BENCH_scenarios.json -matrix full -trials 2

# Scale smoke: 100k simulated clients through the real two-tier
# aggregation and wire-codec paths (discrete-event swarm, no sockets),
# race-enabled. The test enforces the flatness gate (root per-round work
# within 1.5x across 10x client growth) and the flat-oracle bitwise check.
scalebench:
	APF_SCALEBENCH=1 $(GO) test -race ./internal/swarm/ -run '^TestScaleSmoke100k$$' -v

# Regenerate the tracked two-tier scaling report at 100k and 1M simulated
# clients. The run itself enforces the flatness gate and the flat-oracle
# bit-identity at both scales.
scalereport:
	$(GO) run ./cmd/apfbench -scaling BENCH_scale.json

# Regenerate the tracked resume-cost report: end-to-end catch-up over
# loopback for a client absent past the aggregate-history window. The
# run itself enforces the cost gates — snapshot O(dim) flat across a 20x
# absence spread, sketch reconciliation under the snapshot's cost when
# the freezing-mask diff is small.
resumebench:
	$(GO) run ./cmd/apfbench -resume BENCH_resume.json

ci: tier1 vet lint race fuzz crashtest perfbenchtest scenarios scalebench hotpath wirebench telemetrybench scalereport resumebench
