package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the daemon's connection bounds: a client
// must send its headers, and an idle kept-alive connection is closed, in
// bounded time, while a request's body and its answer have no deadline,
// so a multi-megabyte snapshot upload or download is never cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v, WriteTimeout %v: want neither, so a snapshot stream is not cut off",
			srv.ReadTimeout, srv.WriteTimeout)
	}
}
