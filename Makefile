# Developer entry points. `make ci` is the gate: vet + build + full test
# suite + race detector on the concurrency-bearing packages.

GO ?= go
STATICCHECK_VERSION ?= 2023.1.7

.PHONY: ci vet build test race chaos fleet-chaos tenancy-chaos corner-chaos trace-chaos lint bench-json bench-check telemetry-guard oblxbench

# bench-check is a required gate: the sparse eval plans bought a large
# ns/eval margin over the committed baseline, so the 15% regression
# budget no longer trips on CI-hardware noise — a failure means a real
# slowdown (or a deck falling off the sparse factorization path, which
# benchjson flags separately). Regenerate the baseline with bench-json
# when a speedup or an accepted regression lands. lint stays advisory
# (the tools need network access to download on first run).
# telemetry-guard also gates: its allocs/eval comparison is
# deterministic, unlike timings.
ci: vet build test race fleet-chaos tenancy-chaos corner-chaos trace-chaos telemetry-guard bench-check
	-$(MAKE) lint

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/anneal ./internal/oblx ./internal/faults ./internal/server ./internal/fleet ./internal/metrics ./internal/telemetry ./internal/tenancy ./internal/rescache ./internal/trace

# chaos runs the fault-injection suites under the race detector: durable
# envelope/atomic-write tests, the injector itself (filesystem and
# network faults), retry/backoff, the oblxd restart-under-faults tests
# that assert no job is ever lost or double-completed, and the fleet
# partition/worker-kill scenarios. Slower than `make race`; run before
# touching the persistence or supervision layers.
chaos:
	$(GO) test -race -count=1 ./internal/durable ./internal/faults ./internal/retry ./internal/server ./internal/fleet ./internal/tenancy ./internal/rescache

# tenancy-chaos runs the multi-tenant serving drills under the race
# detector: the key-file reload race (readers authenticating through
# hundreds of concurrent SIGHUP-style reloads), quota exhaustion under
# racing submissions (exactly MaxQueued admitted, never more), and
# result-cache corruption (a flipped byte quarantines the entry and
# re-runs the job — never a wrong answer from the cache). Run it before
# touching the auth, scheduler, or cache layers.
tenancy-chaos:
	$(GO) test -race -count=1 ./internal/tenancy ./internal/rescache
	$(GO) test -race -count=1 -run 'TestCacheCorruptionChaos|TestQuotaExhaustionConcurrentSubmits|TestCacheHitSkipsEval|TestCancelQueuedReleasesQuota' ./internal/server

# fleet-chaos runs just the coordinator/worker supervision drills under
# the race detector: heartbeat loss, partition-then-heal fencing,
# kill -9 with checkpoint resume, coordinator restart, and stall
# poisoning — the exactly-once acceptance suite for distributed mode.
fleet-chaos:
	$(GO) test -race -count=1 ./internal/fleet

# trace-chaos runs the distributed-tracing acceptance drills under the
# race detector: a job submitted with a client traceparent, killed on
# one worker mid-anneal, and resumed on another must serve one span
# tree under the original trace ID with a resume event on the second
# attempt — plus the propagation table (claim handoff, span shipping,
# fencing) and the single-daemon trace lifecycle and snapshot fallback.
trace-chaos:
	$(GO) test -race -count=1 -run 'TestFleetTraceKillResume|TestFleetTraceparentPropagation' ./internal/fleet
	$(GO) test -race -count=1 -run 'TestTraceEndpointLifecycle|TestTraceConcurrentSnapshot|TestTraceLegacyJob409|TestTraceparentRequestID' ./internal/server

# corner-chaos runs the worst-case-over-corners robustness drills under
# the race detector: a multi-corner anneal must meet the specs at every
# corner; with one corner fault-injected to fail permanently, the run
# must retry, quarantine it, and finish degraded with per-corner
# failure counts; and a kill/resume of that degraded run must reproduce
# the uninterrupted run bit-exactly from its checkpoint.
corner-chaos:
	$(GO) test -race -count=1 -run 'TestCorner|TestDeriveCorner|TestCompileCorners|TestWorstCase|TestBatchRun' ./internal/oblx ./internal/astrx

# lint is advisory: staticcheck and govulncheck run via `go run`, which
# downloads them on first use. In an offline or hermetic environment the
# download fails and the `-` prefix keeps ci green; the tools still gate
# in any networked dev loop.
lint:
	-$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	-$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# bench-json runs the Table 2 cost-evaluation benchmarks and records
# ns/eval + evals/sec + allocs/eval per benchmark deck in
# BENCH_oblx.json, so the paper's headline throughput figure is
# trackable across commits. The bench output is staged through a temp
# file: piping straight into `go run` would compile benchjson while the
# benchmarks execute and skew the timings.
bench-json:
	@tmp=$$(mktemp) && \
	$(GO) test -run '^$$' -bench Table2Eval -benchmem . > $$tmp && \
	$(GO) run ./cmd/benchjson -filter Table2Eval -out BENCH_oblx.json < $$tmp; \
	rc=$$?; rm -f $$tmp; exit $$rc

# bench-check re-runs the same benchmarks and fails when any deck's
# ns/eval regressed more than 15% against the committed BENCH_oblx.json,
# or when its allocs/eval exceeds the (zero-alloc) baseline.
bench-check:
	@tmp=$$(mktemp) && \
	$(GO) test -run '^$$' -bench Table2Eval -benchmem . > $$tmp && \
	$(GO) run ./cmd/benchjson -filter Table2Eval -check BENCH_oblx.json < $$tmp; \
	rc=$$?; rm -f $$tmp; exit $$rc

# telemetry-guard proves stage-timing instrumentation stays off the
# zero-alloc hot path: a short -benchtime run (allocs/op is exact even
# at low iteration counts) checked against the baseline with a timing
# budget wide enough to absorb CI noise — it trips only on the
# catastrophic case, e.g. sampling accidentally enabled by default.
# The second step pins the batched K-candidate evaluator and the sparse
# single-candidate workspace to zero allocations via their dedicated
# alloc-count tests (testing.AllocsPerRun is exact and timing-free),
# and proves tracing compiled in but disabled (nil recorder) adds zero
# allocations to the eval hot path.
telemetry-guard:
	@tmp=$$(mktemp) && \
	$(GO) test -run '^$$' -bench Table2Eval -benchmem -benchtime 100x . > $$tmp && \
	$(GO) run ./cmd/benchjson -filter Table2Eval -check BENCH_oblx.json -max-regress 2.0 < $$tmp; \
	rc=$$?; rm -f $$tmp; exit $$rc
	$(GO) test -run 'TestBatchZeroAlloc|TestWorkspaceZeroAlloc|TestTraceOffZeroAlloc' -count=1 ./internal/bench

# oblxbench runs the end-to-end benchmark declared in BENCHMARK.json
# (synth-nominal, synth-corners, serve-mixed) as many times as the
# committed baseline has runs, and fails when a median moved past its
# bound. It takes about 30 minutes, so it stays out of ci; run it before
# and after a change that could move synthesis or serving throughput.
oblxbench:
	bash cmd/oblxbench/run.sh -check BENCHMARK.json
