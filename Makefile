# Tier-1 gate: `make ci` is what must stay green before merging.
# Everything is stdlib-only Go; no tools beyond the toolchain are needed.

GO ?= go

.PHONY: ci fmt vet build test race fuzz-seeds fuzz experiments campaign-smoke obs-smoke ckpt-smoke chaos-soak worker-smoke paper-digest camsim-digest bench-kernel bench-kernel-check

ci: fmt vet build race fuzz-seeds

# Fails when any Go file is not gofmt-formatted, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Regression-run the committed fuzz seed corpora (testdata/fuzz plus the
# f.Add seeds) without live fuzzing — fast, deterministic.
fuzz-seeds:
	$(GO) test ./internal/scenario -run FuzzLoad
	$(GO) test ./internal/trace -run FuzzReadTrace
	$(GO) test ./internal/ckpt -run 'FuzzDecode|FuzzDecoderPayload'

# Live coverage-guided fuzzing for local hardening sessions.
fuzz:
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzLoad -fuzztime 30s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadTrace -fuzztime 30s
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzDecoderPayload$$' -fuzztime 30s

# Regenerate the paper's full evaluation suite.
experiments:
	$(GO) run ./cmd/experiments

# End-to-end resilience check: tiny-cycle campaign, SIGINT at ~50%,
# resume to completion, output byte-identical to an uninterrupted run,
# journal validated by obscheck -journal.
campaign-smoke:
	./scripts/campaign_smoke.sh

# End-to-end observability check: campaign with the live introspection
# server + tracer enabled, /metrics and /jobs scraped mid-run, trace
# artifacts validated against the Chrome trace_event and span schemas.
obs-smoke:
	./scripts/obs_smoke.sh

# Byte-identity guard: the paper regenerated at seed 1, 100k cycles, must
# hash to the paper-regen seed-1 digest in perfbench/digests.json.
paper-digest:
	./scripts/paper_digest.sh

# Byte-identity guard for camsim: a fixed set of runs (every scheme's
# shaper set-up, both example scenarios, a replayed trace, link faults)
# must hash, stdout plus exit code, to scripts/camsim_digests.txt.
camsim-digest:
	./scripts/camsim_digest.sh

# Kernel throughput benchmark: measures simulated cycles per second per
# shaping scheme with the idle fast path on and forced off, and rewrites
# the committed BENCH_kernel.json baseline. Each benchmark runs
# BENCH_KERNEL_COUNT times and the summary keeps the best observation
# (interference only ever slows a run down). Run on a quiet machine when
# kernel performance work intentionally moves the numbers.
BENCH_KERNEL_TOL       ?= 0.20
BENCH_KERNEL_ALLOC_TOL ?= 0.05
BENCH_KERNEL_COUNT     ?= 3

bench-kernel:
	$(GO) test -run '^$$' -bench '^BenchmarkKernel$$' -benchmem -count $(BENCH_KERNEL_COUNT) . | tee bench_kernel.txt
	$(GO) run ./scripts/benchkernel -emit -in bench_kernel.txt -out BENCH_kernel.json

# CI gate: re-measures and compares the fast/stepped speedup ratios
# against the committed baseline. The ratio is machine-independent (both
# sides ran on the same runner moments apart), so it fails only on real
# fast-path regressions, with BENCH_KERNEL_TOL slack for noise.
# Allocation counts are deterministic, so allocs/op is gated directly
# with only BENCH_KERNEL_ALLOC_TOL slack for GC attribution noise.
bench-kernel-check:
	$(GO) test -run '^$$' -bench '^BenchmarkKernel$$' -benchmem -count $(BENCH_KERNEL_COUNT) . | tee bench_kernel_current.txt
	$(GO) run ./scripts/benchkernel -emit -in bench_kernel_current.txt -out BENCH_kernel_current.json
	$(GO) run ./scripts/benchkernel -check -baseline BENCH_kernel.json -current BENCH_kernel_current.json -tol $(BENCH_KERNEL_TOL) -alloc-tol $(BENCH_KERNEL_ALLOC_TOL)

# End-to-end checkpoint check: SIGKILL a checkpointing run mid-flight,
# validate the surviving files, resume from the newest checkpoint, and
# byte-diff the resumed report against an uninterrupted run.
ckpt-smoke:
	./scripts/ckpt_smoke.sh

# Process-isolation smoke: SIGKILL a re-exec'd camsim worker mid-run;
# the supervisor must restart it, the retry must resume from checkpoints,
# and the final report (and a process-isolated experiments campaign) must
# stay byte-identical to plain in-process runs.
worker-smoke:
	./scripts/worker_crash_smoke.sh

# Chaos soak: random SIGKILL + injected disk faults + at-rest checkpoint
# corruption, resumed every iteration and byte-compared against a clean
# reference, plus the in-process degradation suite, a process-isolated
# campaign whose worker SIGKILLs itself mid-job, and per-iteration
# goroutine-leak and heap-growth checks.
# The default 20-iteration deterministic profile is the CI gate; set
# CHAOS_SOAK_FULL=1 (and optionally CHAOS_SOAK_ITERS/CHAOS_SOAK_SEED)
# for the full randomized profile.
chaos-soak:
	./scripts/chaos_soak.sh
