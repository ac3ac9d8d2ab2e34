package gateway

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// TestGatewaySilentBackendLeaksNoGoroutine: a backend that accepts and then
// says nothing — a SIGSTOPped mpserver; the kernel completes the accept —
// must cost the session a handshake timeout, not park its goroutine forever
// (and with it, on failover or migration, the session's upstream lock).
func TestGatewaySilentBackendLeaksNoGoroutine(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, gwAddr, stop := startGateway(t, lis.Addr().String())
	defer stop() // after the held connections close: a serve parked on one would hang it
	var held []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			held = append(held, c) // hold open, never answer
		}
	}()
	defer func() {
		lis.Close()
		<-accepted
		for _, c := range held {
			c.Close()
		}
	}()

	base := runtime.NumGoroutine()

	_, err = wire.DialSession(gwAddr, wire.SessionConfig{Name: "silent-test", DialTimeout: 300 * time.Millisecond})
	if !errors.Is(err, common.ErrUnreachable) {
		t.Fatalf("dial through a gateway whose only backend is silent = %v; want ErrUnreachable", err)
	}
	deadline := time.Now().Add(backendTimeout + time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("gateway goroutines: %d before the session, %d a handshake timeout after it", base, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
