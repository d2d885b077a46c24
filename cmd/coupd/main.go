// Command coupd runs the commutative-aggregation service: named
// pkg/commute structures served over HTTP/JSON with batched updates,
// reduce-on-read snapshots and backpressure (see pkg/coupd).
//
// Usage:
//
//	coupd                          # listen on :7077
//	coupd -addr 127.0.0.1:9090 -max-inflight 64
//
// On SIGINT/SIGTERM the server drains: new batches get 503, in-flight
// batches land (bounded by -drain-timeout), then the listener closes.
// Load it with cmd/coupload; read it with:
//
//	curl localhost:7077/v1/snapshot/<name>
//	curl localhost:7077/metrics          # Prometheus text exposition
//
// With -pprof, net/http/pprof profile endpoints are mounted at
// /debug/pprof/ on the same listener (off by default: profiles expose
// process internals, so opt in explicitly).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/pkg/coupd"
)

func main() {
	var (
		addr         = flag.String("addr", ":7077", "listen address")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrently-processed batches before 429 (0 = 4*GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight batches")
		withPprof    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")

		// Connection timeouts. The zero value (Go's default) means "wait
		// forever", which lets one slowloris client — a connection trickling
		// header bytes — hold a file descriptor indefinitely; every knob
		// defaults to a bound sized generously above honest traffic.
		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "max time to read a request's headers (slowloris bound)")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "max time to read a full request, body included")
		writeTimeout      = flag.Duration("write-timeout", 30*time.Second, "max time to write a response")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is kept open")

		sessMax = flag.Int("dedup-sessions", coupd.DefaultMaxSessions, "max exactly-once dedup sessions kept (LRU-evicted beyond)")
		sessTTL = flag.Duration("dedup-session-ttl", coupd.DefaultSessionTTL, "idle time before a dedup session is evicted")
	)
	flag.Parse()

	var opts []coupd.Option
	if *maxInFlight > 0 {
		opts = append(opts, coupd.WithMaxInFlight(*maxInFlight))
	}
	opts = append(opts, coupd.WithDedupSessions(*sessMax, *sessTTL))
	srv, err := coupd.New(opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coupd: %v\n", err)
		os.Exit(2)
	}
	var handler http.Handler = srv
	if *withPprof {
		// Explicit registrations on a private mux: importing net/http/pprof
		// for its side effect would silently publish profiles on
		// http.DefaultServeMux, which this process never serves.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	fmt.Printf("coupd: serving on %s (POST /v1/batch, GET /v1/snapshot[/{name}], GET /metrics)\n", *addr)
	if *withPprof {
		fmt.Printf("coupd: pprof on %s/debug/pprof/\n", *addr)
	}

	select {
	case err := <-errc:
		// Listener died on its own (bad addr, port in use, ...).
		fmt.Fprintf(os.Stderr, "coupd: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("coupd: %v: draining (timeout %v)\n", s, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "coupd: %v\n", err)
		code = 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "coupd: shutdown: %v\n", err)
		code = 1
	}
	fmt.Println("coupd: drained, bye")
	os.Exit(code)
}
