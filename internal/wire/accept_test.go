package wire

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestAcceptorCloseWaitsForEveryConnection: Close closes both a connection
// still waiting for its hello and one being served, and returns only after
// serve has returned. The hello alone is counted, in frames_in.
func TestAcceptorCloseWaitsForEveryConnection(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nc := &NetCounters{}
	served := make(chan struct{})
	var returned atomic.Bool
	a := Accept(lis, nc, SessHello, SessHelloAck, func(c net.Conn, hello Frame) {
		close(served)
		_, _ = c.Read(make([]byte, 1)) // until Close closes c
		time.Sleep(20 * time.Millisecond)
		returned.Store(true)
	})
	silent, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	hello, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer hello.Close()
	if _, err := WriteFrame(hello, nil, Frame{Kind: KindControl, Op: SessHello}); err != nil {
		t.Fatal(err)
	}
	<-served
	for deadline := time.Now().Add(5 * time.Second); a.Live() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d live connections, want the silent one and the served one", a.Live())
		}
	}

	start := time.Now()
	a.Close()
	if !returned.Load() {
		t.Error("Close returned before serve did")
	}
	if n := a.Live(); n != 0 {
		t.Errorf("%d live connections after Close", n)
	}
	for name, c := range map[string]net.Conn{"silent": silent, "served": hello} {
		_ = c.SetReadDeadline(start.Add(500 * time.Millisecond))
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("%s connection's read after Close: %v, want EOF", name, err)
		}
	}
	if got := nc.Snapshot(); got.FramesIn != 1 || got.CodecErrors != 0 {
		t.Errorf("frames in %d, codec errors %d; want the hello alone", got.FramesIn, got.CodecErrors)
	}
}
