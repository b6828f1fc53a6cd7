# Developer entry points. `make ci` is the gate: vet (with a gofmt check)
# + build + full test suite + race detector on the concurrency-bearing
# packages.

GO ?= go
STATICCHECK_VERSION ?= 2023.1.7

.PHONY: ci vet build test race fuzz chaos fleet-chaos tenancy-chaos corner-chaos trace-chaos lint bench-json bench-check telemetry-guard oblxbench

# bench-check is a required gate: the sparse eval plans bought a large
# ns/eval margin over the committed baseline, so the 15% regression
# budget no longer trips on CI-hardware noise — a failure means a real
# slowdown (or a deck falling off the sparse factorization path, which
# benchjson flags separately). Regenerate the baseline with bench-json
# when a speedup or an accepted regression lands. lint stays advisory
# (the tools need network access to download on first run).
# telemetry-guard also gates: its allocs/eval comparison is
# deterministic, unlike timings.
ci: vet build test race fuzz fleet-chaos tenancy-chaos corner-chaos trace-chaos telemetry-guard bench-check
	-$(MAKE) lint

# vet also fails when any tracked Go file is not gofmt-clean.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/anneal ./internal/oblx ./internal/faults ./internal/server ./internal/fleet ./internal/metrics ./internal/telemetry ./internal/tenancy ./internal/rescache ./internal/trace ./internal/bench

# fuzz runs the repo's fuzz targets for 10 s each: FuzzMOSEvalSplit holds
# the split MOS evaluation (current part, then partials, then
# capacitances) to a verbatim copy of the unsplit one, bit for bit, for
# every library MOS model at random finite biases and geometries;
# FuzzJigReuse holds a cornered lane set that keeps the factors and
# models of jigs whose matrices repeat, and the operating points of
# devices whose inputs repeat, to a fresh lane set, bit for bit, over
# random sequences of repeats, moves, readouts, ±0 and NaN node voltages
# and Newton replays; FuzzCanonical
# holds the deck parser and validator to never panicking on arbitrary
# text, and canonical deck text (the result cache's key) to being a
# fixed point; FuzzPadeSearch holds the Padé order search, and the
# unity-gain and -3 dB searches read off its models, to verbatim copies
# of the full top-down search, bit for bit, on moments recorded from
# runs, raw moments with 0, -0, NaN and Inf entries, and moments of
# random pole/residue sets. The state-file targets follow: FuzzEnvelope
# holds the durable envelope to Open(Seal(p)) == p, to refusing every
# single-byte change of a sealed envelope, and to never panicking;
# FuzzDecodeCheckpoint holds the checkpoint decoder to never panicking
# and to accepting only current-version checkpoints with annealer and
# weight state; FuzzJobRecord holds the job-record reader to never
# panicking and to accepting only sealed current-version records whose
# ID matches the file name. The input parsers come last: FuzzSubmitBody
# holds oblxd's admission of POST /v1/jobs and /v1/batches JSON bodies
# to never panicking, to rejecting only with a DeckError (HTTP 400), to
# admitted options within range (runs in [1, 64], max_moves ≥ 1 and
# within the limit, seed ≠ 0) and to a repeated admission giving the
# same result-cache key, seeded with the bench decks; FuzzExprParse
# holds the expression parser to never panicking and to a round trip
# (an accepted expression's String() parses to a node with the same
# String(), and both evaluate to the same bits or the same error), seeded
# with the bench decks' spec expressions; FuzzTraceparent holds the W3C
# traceparent parser to never panicking and an accepted value's context
# to a round trip through Context.Traceparent(). Every line bounds input
# minimization to 100
# runs: at the default 60 s budget a worker that found a new input could
# spend the rest of the 10 s minimizing it, fuzzing a few thousand
# inputs per target instead of exploring.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMOSEvalSplit$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/devices
	$(GO) test -run '^$$' -fuzz '^FuzzJigReuse$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/astrx
	$(GO) test -run '^$$' -fuzz '^FuzzCanonical$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/netlist
	$(GO) test -run '^$$' -fuzz '^FuzzPadeSearch$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/awe
	$(GO) test -run '^$$' -fuzz '^FuzzEnvelope$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/oblx
	$(GO) test -run '^$$' -fuzz '^FuzzJobRecord$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitBody$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzExprParse$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/expr
	$(GO) test -run '^$$' -fuzz '^FuzzTraceparent$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/trace

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
# The run-record drills check that a job's move events (progress
# samples on the root span) survive a poison-then-restart, a
# stall-requeue-restart, and a fleet worker killed mid-run.
trace-chaos:
	$(GO) test -race -count=1 -run 'TestFleetTraceKillResume|TestFleetTraceparentPropagation|TestFleetKillKeepsHeartbeatMoves' ./internal/fleet
	$(GO) test -race -count=1 -run 'TestTraceEndpointLifecycle|TestTraceConcurrentSnapshot|TestTraceLegacyJob409|TestTraceparentRequestID|TestMoveEventsSurviveRestart|TestRestartKeepsStalledAttemptMoves' ./internal/server

# corner-chaos runs the worst-case-over-corners robustness drills under
# the race detector: a multi-corner anneal must meet the specs at every
# corner; with one corner fault-injected to fail permanently, the run
# must retry, quarantine it, and finish degraded with per-corner
# failure counts; a kill/resume of that degraded run must reproduce
# the uninterrupted run bit-exactly from its checkpoint; and a cornered
# run sampling every eval must report all seven stages
# (TestCornerStageTiming, selected by the TestCorner pattern).
corner-chaos:
	$(GO) test -race -count=1 -run 'TestCorner|TestDeriveCorner|TestCompileCorners|TestWorstCase' ./internal/oblx ./internal/astrx

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
# The second step pins the scalar workspace and one cornered eval (a
# Run over nominal plus two corners and its WorstCase assembly) to zero
# allocations via their dedicated alloc-count tests
# (testing.AllocsPerRun is exact and timing-free), each at candidates
# below unity gain (no spec reads a model, so none is fitted) and above
# it (the model is fitted as ugf reads it), and proves tracing compiled
# in but disabled (nil recorder) adds zero allocations to the eval hot
# path. The third step pins a Newton iteration's bias work (one
# residual replay plus one Jacobian at its point) to zero allocations.
# The fourth pins a proposal of either Newton move class to zero
# allocations, whether the move solves it or answers it from its memo.
telemetry-guard:
	@tmp=$$(mktemp) && \
	$(GO) test -run '^$$' -bench Table2Eval -benchmem -benchtime 100x . > $$tmp && \
	$(GO) run ./cmd/benchjson -filter Table2Eval -check BENCH_oblx.json -max-regress 2.0 < $$tmp; \
	rc=$$?; rm -f $$tmp; exit $$rc
	$(GO) test -run 'TestBatchZeroAlloc|TestWorkspaceZeroAlloc|TestTraceOffZeroAlloc' -count=1 ./internal/bench
	$(GO) test -run 'TestDCProblemZeroAlloc' -count=1 ./internal/astrx
	$(GO) test -run 'TestNewtonMoveZeroAlloc' -count=1 ./internal/oblx

# oblxbench runs the end-to-end benchmark declared in BENCHMARK.json
# (synth-nominal, synth-corners, serve-mixed) as many times as the
# committed baseline has runs, and fails when a median moved past its
# bound. It takes about 30 minutes, so it stays out of ci; run it before
# and after a change that could move synthesis or serving throughput.
oblxbench:
	bash cmd/oblxbench/run.sh -check BENCHMARK.json
