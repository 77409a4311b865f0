package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/load"
	"repro/internal/serve"
)

// cmdServe runs the long-lived classification service. It blocks until
// the signal context cancels, then drains: a clean drain exits 0, a drain
// that had to force-cancel jobs exits 3 (partial results — the jobs that
// were killed got typed "canceled" errors).
func cmdServe(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var cfg serve.Config
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:8095", "listen address")
	fs.IntVar(&cfg.Workers, "workers", 0, "job worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.QueueDepth, "queue", 64, "max admitted-but-unfinished jobs before 429")
	fs.IntVar(&cfg.TenantCap, "tenant-cap", 16, "max in-flight jobs per tenant")
	fs.DurationVar(&cfg.JobTimeout, "job-timeout", 2*time.Minute, "default per-job deadline")
	fs.DurationVar(&cfg.MaxJobTimeout, "max-job-timeout", 10*time.Minute, "cap on spec-requested deadlines")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 15*time.Second, "graceful drain bound; jobs past it are force-canceled")
	fs.Int64Var(&cfg.MaxBodyBytes, "max-body", 256<<20, "max uploaded trace body bytes")
	fs.IntVar(&cfg.MaxParallelism, "max-par", 0, "clamp on spec parallelism (0 = 4x GOMAXPROCS)")
	logLevel := fs.String("log", "warn", "slog level: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := parseLevel(*logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))

	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "uselessmiss serve: listening on http://%s (POST /v1/jobs, GET /v1/stats, /metrics, /readyz)\n", s.Addr())
	err = s.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "uselessmiss serve: drained clean")
	return nil
}

// cmdLoad drives a running server with seeded open-loop load and reports
// sustained jobs/s, refs/s and latency quantiles.
func cmdLoad(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	var cfg load.Config
	fs.StringVar(&cfg.BaseURL, "url", "http://127.0.0.1:8095", "server base URL")
	fs.StringVar(&cfg.Mode, "mode", "constant", "offered-rate shape: constant, step or burst")
	fs.Float64Var(&cfg.RPS, "rps", 10, "offered arrival rate, jobs/s")
	fs.Float64Var(&cfg.StepRPS, "step-rps", 0, "step mode: RPS added per period (0 = rps)")
	fs.DurationVar(&cfg.Period, "period", 0, "step/burst period (0 = duration/4)")
	fs.Float64Var(&cfg.Duty, "duty", 0.5, "burst mode: on fraction of each period")
	fs.DurationVar(&cfg.Duration, "duration", 10*time.Second, "how long to offer load")
	fs.StringVar(&cfg.Dist, "dist", "exponential", "inter-arrival distribution: exponential, uniform or equidistant")
	fs.Int64Var(&cfg.Seed, "seed", 1, "arrival-process seed")
	fs.IntVar(&cfg.MaxInflight, "inflight", 512, "client-side cap on concurrent requests")
	spec := fs.String("spec", "", "JSON job spec to submit (default: a classify job for -workload)")
	workloadName := fs.String("workload", "JACOBI", "workload for the default classify spec")
	experimentName := fs.String("experiment", "classify", "experiment for the default spec")
	block := fs.Int("block", 64, "block size for the default spec")
	scheme := fs.String("scheme", "all", "scheme for the default classify spec")
	quick := fs.Bool("quick", true, "quick mode for the default spec")
	tenants := fs.Int("tenants", 1, "spread load across this many synthetic tenants")
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	bodies, err := loadBodies(*spec, *experimentName, *workloadName, *block, *scheme, *quick, *tenants)
	if err != nil {
		return err
	}
	cfg.Bodies = bodies

	rep, err := load.Run(ctx, cfg)
	if err != nil {
		return err
	}
	return rep.Fprint(out, *csv)
}

// loadBodies builds the round-robin job bodies: the explicit -spec JSON,
// or a spec assembled from the flags, fanned out over the synthetic
// tenants.
func loadBodies(spec, experiment, workload string, block int, scheme string, quick bool, tenants int) ([][]byte, error) {
	if tenants < 1 {
		tenants = 1
	}
	var base map[string]any
	if spec != "" {
		if err := json.Unmarshal([]byte(spec), &base); err != nil {
			return nil, fmt.Errorf("bad -spec: %w", err)
		}
	} else {
		base = map[string]any{"experiment": experiment, "block": block}
		if experiment == "classify" {
			base["workload"] = workload
			base["scheme"] = scheme
		} else {
			base["quick"] = quick
			base["workloads"] = []string{workload}
		}
	}
	bodies := make([][]byte, 0, tenants)
	for i := 0; i < tenants; i++ {
		if tenants > 1 {
			base["tenant"] = fmt.Sprintf("tenant-%d", i)
		}
		b, err := json.Marshal(base)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}
