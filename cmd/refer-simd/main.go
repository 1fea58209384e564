// Command refer-simd serves the REFER simulation stack as a long-lived
// HTTP/JSON daemon: clients submit run configurations (or registered figure
// builds), poll or stream status, fetch results and cancel runs. See
// EXPERIMENTS.md for the API schema and DESIGN.md "Simulation-as-a-service"
// for the architecture.
//
// Usage:
//
//	refer-simd [-addr :8080] [-workers N] [-queue N] [-cache N]
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight HTTP
// requests drain, queued and running simulations are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"refer/internal/simd"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "concurrent simulation executions (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 64, "pending-run queue depth; a full queue rejects with 429")
		cache   = flag.Int("cache", 512, "content-addressed result cache entries")
		retain  = flag.Int("retain", 16384, "terminal run records kept for status queries")
		figPar  = flag.Int("figure-parallel", 1, "default sweep parallelism for figure builds")
		quiet   = flag.Bool("quiet", false, "suppress per-run log lines")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "refer-simd: ", log.LstdFlags)
	srvLog := logger
	if *quiet {
		srvLog = nil
	}
	core := simd.New(simd.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheSize:         *cache,
		RetainRuns:        *retain,
		FigureParallelism: *figPar,
		Log:               srvLog,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: core}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Printf("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	logger.Printf("listening on %s (%d workers, queue %d, cache %d)",
		*addr, effWorkers, *queue, *cache)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatalf("serve: %v", err)
	}
	core.Close()
	logger.Printf("bye")
}
