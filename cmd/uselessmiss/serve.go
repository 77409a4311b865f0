package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/serve"
)

// cmdServe runs the long-lived classification service. It blocks until
// the signal context cancels, then drains: a clean drain exits 0, a drain
// that had to force-cancel jobs exits 3 (the jobs that were killed got
// typed "canceled" errors).
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
