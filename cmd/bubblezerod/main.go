// Command bubblezerod serves the digital-twin HTTP API: create fleets
// from a JSON config, advance them in the background, inject live
// climate/door/fault events, read downsampled telemetry, and
// checkpoint/restore them as versioned gob snapshots.
//
//	bubblezerod -addr 127.0.0.1:8080
//
// See internal/twin.Server for the route table and DESIGN.md §11 for the
// API contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"bubblezero/internal/twin"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bubblezerod:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	srv := twin.NewServer()
	defer srv.Close()

	httpSrv := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("bubblezerod listening on %s\n", *addr)

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(shutCtx)
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// newHTTPServer returns the daemon's HTTP server. It bounds how long a
// client may take to send a request's headers and how long a kept-alive
// connection may sit idle between requests. It sets no read or write
// timeout: a snapshot of a large twin streams in or out for as long as
// its megabytes take, and a deadline would cut it off part way.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
