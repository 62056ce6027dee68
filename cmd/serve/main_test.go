package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerTimeouts pins the daemon's HTTP timeouts: every one is
// set, and WriteTimeout leaves room for a slow /observe reply, which waits
// for the fine-tune and the publish.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("addr %q handler %v", srv.Addr, srv.Handler)
	}
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout, 5 * time.Second},
		{"ReadTimeout", srv.ReadTimeout, 30 * time.Second},
		{"WriteTimeout", srv.WriteTimeout, 2 * time.Minute},
		{"IdleTimeout", srv.IdleTimeout, 2 * time.Minute},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// The median /observe reply takes about 9 s on a 2-vCPU host while
	// reads compete with the fine-tune; the write deadline must not cut
	// off its tail.
	if srv.WriteTimeout < 10*9*time.Second {
		t.Errorf("WriteTimeout %v is within 10x of a median /observe reply", srv.WriteTimeout)
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
}
