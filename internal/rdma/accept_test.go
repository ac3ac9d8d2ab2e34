package rdma_test

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"polardbmp/internal/gateway"
	"polardbmp/internal/rdma"
	"polardbmp/internal/wire"
)

// TestAcceptorCloseEndsSilentConnection: a dialer that connects and never
// sends its hello is closed by its server's Close, not by the hello
// deadline. The dialer reads EOF within 500 ms of Close, and Close returns
// only after the connection's goroutine has exited. One row per listener of
// the tree; each accepts through wire.Accept.
func TestAcceptorCloseEndsSilentConnection(t *testing.T) {
	for _, row := range []struct {
		name  string
		serve func(lis net.Listener) (close func())
	}{
		{"fabric", func(lis net.Listener) func() {
			return rdma.ServeFabric(rdma.NewFabric(rdma.Latency{}), lis, "seed", &wire.NetCounters{}).Close
		}},
		{"session", func(lis net.Listener) func() {
			return wire.ServeSessions(lis, "server", nil, &wire.NetCounters{}).Close
		}},
		{"gateway", func(lis net.Listener) func() {
			return gateway.New(lis, nil, time.Second).Close
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			closeSrv := row.serve(lis)
			served := runtime.NumGoroutine()
			c, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// The server has accepted once the connection has a goroutine.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() <= served; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the server never accepted the connection")
				}
			}

			start := time.Now()
			closeSrv()
			if g := runtime.NumGoroutine(); g > base {
				t.Errorf("%d goroutines after Close, %d before the server started: the connection's goroutine outlived Close", g, base)
			}
			_ = c.SetReadDeadline(start.Add(500 * time.Millisecond))
			if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
				t.Fatalf("silent dialer's read %v after Close: %v, want EOF", time.Since(start).Round(time.Millisecond), err)
			}
		})
	}
}
