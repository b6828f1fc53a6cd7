// Command oblxd is the synthesis daemon: it serves the ASTRX/OBLX
// toolchain over HTTP, running submitted decks on a bounded worker pool
// with streaming progress, cancellation, and checkpoint/restart.
//
//	oblxd -addr :8080 -state-dir /var/lib/oblxd
//
// Submit a deck and watch it anneal:
//
//	curl -s -X POST --data-binary @ota.ckt 'localhost:8080/v1/jobs?max_moves=120000'
//	curl -N localhost:8080/v1/jobs/<id>/events
//	curl -s localhost:8080/v1/jobs/<id>/result
//
// On SIGTERM/SIGINT the daemon drains gracefully: new submissions get
// 503, running jobs checkpoint at their exact annealing move, and a
// restarted daemon pointed at the same -state-dir resumes them.
//
// The daemon also scales out as a fleet (see docs/operations.md,
// "Running a fleet"): one coordinator owns the job store and hands out
// leases, any number of workers claim and execute runs:
//
//	oblxd -mode coordinator -addr :8080 -state-dir /var/lib/oblxd
//	oblxd -mode worker -coordinator http://coord:8080 -state-dir /var/lib/oblxd-w1
//
// The default -mode standalone behaves exactly as before.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"astrx/internal/fleet"
	"astrx/internal/metrics"
	"astrx/internal/oblx"
	"astrx/internal/rescache"
	"astrx/internal/retry"
	"astrx/internal/server"
	"astrx/internal/telemetry"
	"astrx/internal/tenancy"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		stateDir   = flag.String("state-dir", "", "directory for job records and checkpoints (empty: in-memory only, jobs die with the daemon)")
		workers    = flag.Int("workers", 0, "concurrent synthesis jobs (0: GOMAXPROCS)")
		ckptEvery  = flag.Int("checkpoint-every", oblx.DefaultCheckpointEvery, "moves between job checkpoints")
		progEvery  = flag.Int("progress-every", oblx.DefaultProgressEvery, "default moves between progress events")
		movesLimit = flag.Int("max-moves-limit", 0, "reject jobs asking for more moves than this (0: no limit)")
		drainGrace = flag.Duration("drain-grace", 60*time.Second, "how long shutdown waits for jobs to checkpoint")
		pprofOn    = flag.Bool("pprof", false, "serve runtime profiles under /debug/pprof/ (see docs/profiling.md)")

		maxQueue    = flag.Int("max-queue", 0, "bound on jobs waiting for a worker; submissions beyond it get 429 (0: unbounded)")
		stallTO     = flag.Duration("stall-timeout", 0, "kill and requeue a running job with no progress tick for this long (0: supervision off)")
		maxAttempts = flag.Int("max-attempts", 0, "supervised attempts before a stalling job is poisoned (0: default 3)")
		jobDeadline = flag.Duration("job-deadline", 0, "per-job wall-clock limit; exceeding it fails the job (0: no limit)")

		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		telemSample = flag.Int("telemetry-sample", telemetry.DefaultSampleEvery, "sample 1 in N evaluations for per-stage timing (0: off)")
		traceRecs   = flag.Int("trace-records", 0, "per-job sampled-eval trace-span ring size (0: default 256)")

		apiKeysFile = flag.String("api-keys-file", "", "JSON tenant/API-key file; requests must then authenticate (empty: open mode). SIGHUP reloads it")
		cacheMode   = flag.String("cache-mode", "off", "result cache: off, ro (serve hits, never store), or rw")
		cacheMax    = flag.Int("cache-entries", 0, "result-cache LRU bound (0: default 4096)")

		mode        = flag.String("mode", "standalone", "standalone, coordinator, or worker (see docs/operations.md)")
		coordinator = flag.String("coordinator", "", "coordinator base URL (worker mode)")
		workerID    = flag.String("worker-id", "", "worker name in leases and logs (worker mode; default host-pid)")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "coordinator: declare a worker dead after this long without a heartbeat")
		hbEvery     = flag.Duration("heartbeat-every", 0, "coordinator: heartbeat cadence workers are told to use (0: lease-ttl/3)")
	)
	flag.Parse()

	cfg := daemonConfig{
		addr: *addr, stateDir: *stateDir, workers: *workers,
		ckptEvery: *ckptEvery, progEvery: *progEvery, movesLimit: *movesLimit,
		drainGrace: *drainGrace, pprofOn: *pprofOn,
		maxQueue: *maxQueue, stallTimeout: *stallTO,
		maxAttempts: *maxAttempts, jobDeadline: *jobDeadline,
		logFormat: *logFormat, logLevel: *logLevel,
		telemSample: *telemSample, traceRecs: *traceRecs,
		apiKeysFile: *apiKeysFile, cacheMode: *cacheMode, cacheMax: *cacheMax,
		mode: *mode, coordinator: *coordinator, workerID: *workerID,
		leaseTTL: *leaseTTL, hbEvery: *hbEvery,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "oblxd:", err)
		os.Exit(1)
	}
}

// daemonConfig carries the parsed flags into run.
type daemonConfig struct {
	addr, stateDir       string
	workers              int
	ckptEvery, progEvery int
	movesLimit           int
	drainGrace           time.Duration
	pprofOn              bool

	maxQueue, maxAttempts int
	stallTimeout          time.Duration
	jobDeadline           time.Duration

	logFormat, logLevel string
	telemSample         int
	traceRecs           int

	apiKeysFile string
	cacheMode   string
	cacheMax    int

	mode, coordinator, workerID string
	leaseTTL, hbEvery           time.Duration
}

func run(cfg daemonConfig) error {
	if cfg.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", cfg.workers)
	}
	if cfg.ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0 (got %d)", cfg.ckptEvery)
	}
	if cfg.maxQueue < 0 || cfg.maxAttempts < 0 {
		return fmt.Errorf("-max-queue and -max-attempts must be >= 0")
	}
	if cfg.stallTimeout < 0 || cfg.jobDeadline < 0 {
		return fmt.Errorf("-stall-timeout and -job-deadline must be >= 0")
	}
	if cfg.telemSample < 0 || cfg.traceRecs < 0 {
		return fmt.Errorf("-telemetry-sample and -trace-records must be >= 0")
	}

	logger, err := telemetry.NewLogger(os.Stderr, cfg.logFormat, cfg.logLevel)
	if err != nil {
		return err
	}
	switch cfg.mode {
	case "standalone", "coordinator":
		return runServe(cfg, logger)
	case "worker":
		return runWorker(cfg, logger)
	default:
		return fmt.Errorf("-mode must be standalone, coordinator, or worker (got %q)", cfg.mode)
	}
}

// runServe runs the HTTP daemon: the whole service in standalone mode,
// or the job store + lease coordinator in coordinator mode (execution
// then happens on workers).
func runServe(cfg daemonConfig, logger *slog.Logger) error {
	// The Options convention is 0 → default, negative → off; the flag
	// convention is 0 → off (nothing is "default off by surprise").
	sample := cfg.telemSample
	if sample == 0 {
		sample = -1
	}

	// Tenancy: a key file turns authentication on; without one the
	// daemon runs open, exactly as before. SIGHUP reloads the file in
	// place (a broken edit keeps the previous table).
	var auth *tenancy.Authenticator
	if cfg.apiKeysFile != "" {
		a, err := tenancy.NewAuthenticator(cfg.apiKeysFile)
		if err != nil {
			return err
		}
		auth = a
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := a.Reload(); err != nil {
					logger.Error("api key file reload failed, previous table kept", "err", err)
				} else {
					logger.Info("api key file reloaded", "path", cfg.apiKeysFile)
				}
			}
		}()
	}

	// Result cache: durable alongside the job records, so hits survive
	// restarts with the same corruption-quarantine discipline. Its
	// metrics land on the manager's registry (one /debug/metrics page).
	reg := metrics.New()
	cmode, err := rescache.ParseMode(cfg.cacheMode)
	if err != nil {
		return err
	}
	var cache *rescache.Cache
	if cmode != rescache.Off {
		if cfg.stateDir == "" {
			return errors.New("-cache-mode requires -state-dir (the cache is durable)")
		}
		cache, err = rescache.New(rescache.Options{
			Mode:       cmode,
			Dir:        filepath.Join(cfg.stateDir, "rescache"),
			MaxEntries: cfg.cacheMax,
			Registry:   reg,
			Logger:     logger,
		})
		if err != nil {
			return err
		}
	}

	// -max-attempts caps the supervised attempts of the default retry
	// policy; the fleet coordinator paces its re-leases by the same one.
	rpol := retry.Default()
	if cfg.maxAttempts > 0 {
		rpol.MaxAttempts = cfg.maxAttempts
	}
	mgr, err := server.New(server.Options{
		StateDir:             cfg.stateDir,
		Workers:              cfg.workers,
		CheckpointEvery:      cfg.ckptEvery,
		ProgressEvery:        cfg.progEvery,
		MaxMovesLimit:        cfg.movesLimit,
		EnableProfiling:      cfg.pprofOn,
		Registry:             reg,
		Logger:               logger,
		Auth:                 auth,
		Cache:                cache,
		TelemetrySampleEvery: sample,
		TraceRecords:         cfg.traceRecs,
		MaxQueue:             cfg.maxQueue,
		StallTimeout:         cfg.stallTimeout,
		Retry:                rpol,
		JobDeadline:          cfg.jobDeadline,
		ExternalExec:         cfg.mode == "coordinator",
	})
	if err != nil {
		return err
	}

	handler := mgr.Handler()
	if cfg.mode == "coordinator" {
		coord := fleet.NewCoordinator(mgr, fleet.Options{
			LeaseTTL:       cfg.leaseTTL,
			HeartbeatEvery: cfg.hbEvery,
			// In coordinator mode -stall-timeout supervises eval progress
			// across the fleet instead of a local worker pool. Workers
			// checkpoint at the manager's -checkpoint-every.
			StallTimeout: cfg.stallTimeout,
			StateDir:     cfg.stateDir,
			Logger:       logger,
		})
		defer coord.Stop()
		handler = coord.Handler()
	}

	srv := &http.Server{
		Addr:    cfg.addr,
		Handler: handler,
		// Job streams are long-lived; only bound the read side.
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", cfg.addr, "state_dir", cfg.stateDir)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining jobs", "grace", cfg.drainGrace)
	grace, cancel := context.WithTimeout(context.Background(), cfg.drainGrace)
	defer cancel()
	// Drain the job manager first so in-flight anneals checkpoint; the
	// HTTP server follows once event streams have terminated.
	if err := mgr.Shutdown(grace); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	if err := srv.Shutdown(grace); err != nil {
		srv.Close()
	}
	logger.Info("bye")
	return nil
}

// runWorker runs the fleet-worker claim loop against a coordinator. On
// SIGTERM/SIGINT the worker drains gracefully: the in-flight run ships
// a final checkpoint and releases its lease so another worker resumes
// it mid-anneal.
func runWorker(cfg daemonConfig, logger *slog.Logger) error {
	if cfg.coordinator == "" {
		return errors.New("-mode worker requires -coordinator URL")
	}
	id := cfg.workerID
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := fleet.NewWorker(fleet.WorkerOptions{
		Coordinator: cfg.coordinator,
		ID:          id,
		Dir:         cfg.stateDir,
		Logger:      logger,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("worker started", "id", id, "coordinator", cfg.coordinator, "state_dir", cfg.stateDir)
	err := w.Run(ctx)
	logger.Info("bye")
	return err
}
