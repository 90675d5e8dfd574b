// Command tiserved runs the replay stack as a resident sweep service:
// clients upload time-independent traces once (content-addressed, encoded
// into binary images and cached under a byte budget) and then ask what-if questions against
// them over HTTP. Determinism makes every answer perfectly cacheable —
// repeated questions are served byte-identically with zero replay, and
// identical questions in flight coalesce onto one kernel run.
//
// Usage:
//
//	tiserved -addr :8347
//	tiserved -addr 127.0.0.1:0 -addr-file tiserved.addr \
//	         -max-concurrent 2 -queue 8 -workers 8
//
// Endpoints:
//
//	POST /traces   register a trace set (inline texts, or a daemon-local
//	               directory when -allow-paths is set)
//	GET  /traces   list stored trace sets
//	POST /sweeps   replay a scenario grid against a stored trace, or — with
//	               a "synth" model and a grid "world" axis — against
//	               synthetic worlds regenerated at sizes nobody recorded
//	GET  /healthz  liveness
//	GET  /stats    cache/queue/engine counters
//
// On SIGINT/SIGTERM the daemon stops accepting requests, gives in-flight
// sweeps -grace to finish, then aborts them. With -leakcheck it verifies at
// exit that no goroutines outlived shutdown and fails loudly otherwise (the
// CI smoke job runs with it on).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tireplay/internal/cli"
	"tireplay/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8347", "listen address (host:port; port 0 picks an ephemeral port)")
		addrFile      = flag.String("addr-file", "", "write the bound address to this file (atomically) once listening")
		traceBudget   = flag.Int("trace-budget-mb", 1024, "trace store budget in MiB before LRU eviction")
		resultBudget  = flag.Int("result-budget-mb", 256, "result cache budget in MiB before LRU eviction")
		maxConcurrent = flag.Int("max-concurrent", 2, "sweeps executing at once")
		queue         = flag.Int("queue", 4, "sweeps waiting for a slot before 429s are shed")
		workers       = flag.Int("workers", 0, "shared engine pool size (default GOMAXPROCS)")
		maxScenarios  = flag.Int("max-scenarios", 4096, "largest scenario grid one request may expand to")
		allowPaths    = flag.Bool("allow-paths", false, "allow POST /traces to register daemon-local directories")
		retryAfter    = flag.Int("retry-after", 1, "Retry-After seconds hinted on shed requests")
		grace         = flag.Duration("grace", 10*time.Second, "shutdown grace for in-flight sweeps before they are aborted")
		leakcheck     = flag.Bool("leakcheck", false, "fail at exit if goroutines outlive shutdown")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fail(cli.Usagef("unexpected arguments: %v", flag.Args()))
	}
	if *traceBudget <= 0 || *resultBudget <= 0 {
		fail(cli.Usagef("-trace-budget-mb and -result-budget-mb must be positive"))
	}

	// Arm signal handling before taking the leak-check baseline: the
	// runtime's signal-delivery goroutine is born on first Notify and
	// lives for the rest of the process — it is plumbing, not a leak.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	baseline := runtime.NumGoroutine()

	srv := serve.New(serve.Config{
		TraceBudget:   int64(*traceBudget) << 20,
		ResultBudget:  int64(*resultBudget) << 20,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *queue,
		Workers:       *workers,
		MaxScenarios:  *maxScenarios,
		AllowPaths:    *allowPaths,
		RetryAfter:    *retryAfter,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := cli.WriteAddrFile(*addrFile, bound); err != nil {
			ln.Close()
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "tiserved: listening on %s\n", bound)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case <-sigCtx.Done():
	case err := <-serveErr:
		fail(err)
	}
	stop()
	fmt.Fprintf(os.Stderr, "tiserved: shutting down (grace %s)\n", *grace)

	// Stop accepting; give in-flight sweeps the grace window, then abort
	// them so their handlers return and Shutdown can complete.
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	abort := context.AfterFunc(shutCtx, srv.Abort)
	err = hs.Shutdown(shutCtx)
	abort()
	cancel()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "tiserved: shutdown: %v\n", err)
	}
	srv.Close()
	<-serveErr // Serve has returned http.ErrServerClosed by now

	if *leakcheck && !goroutinesSettled(baseline) {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "tiserved: goroutine leak after shutdown (%d live, baseline %d):\n%s\n",
			runtime.NumGoroutine(), baseline, buf[:n])
		os.Exit(cli.ExitFailure)
	}
}

// goroutinesSettled polls for the goroutine count to return to the pre-serve
// baseline; connection and signal plumbing needs a moment to unwind.
func goroutinesSettled(baseline int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

func fail(err error) {
	cli.Fail("tiserved", err)
}
