package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// connPairs are the two transports every Link test runs over: net.Pipe (every
// write blocks until it is read, so ordering bugs deadlock instead of hiding
// in a socket buffer) and a loopback TCP connection (what is deployed).
var connPairs = map[string]func(t testing.TB) (a, b net.Conn){
	"pipe": func(t testing.TB) (net.Conn, net.Conn) { return net.Pipe() },
	"loopback": func(t testing.TB) (net.Conn, net.Conn) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		a, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		b, err := lis.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	},
}

// overPairs runs fn once per transport.
func overPairs(t *testing.T, fn func(t *testing.T, a, b net.Conn)) {
	for name, mk := range connPairs {
		t.Run(name, func(t *testing.T) {
			a, b := mk(t)
			fn(t, a, b)
		})
	}
}

// runLink starts l's read loop and returns a channel closed when Run returns.
func runLink(l *Link) <-chan struct{} {
	ran := make(chan struct{})
	go func() { l.Run(); close(ran) }()
	return ran
}

// echoPair is an issuing link and a serving link whose handler echoes the
// payload; both are torn down with the test.
func echoPair(t testing.TB, a, b net.Conn, serve func(op uint8, p []byte) ([]byte, error)) (cl, srv *Link) {
	t.Helper()
	cl, srv = NewLink(a, &NetCounters{}, false), NewLink(b, &NetCounters{}, true)
	srv.Serve = serve
	ranC, ranS := runLink(cl), runLink(srv)
	t.Cleanup(func() {
		cl.Fail(errors.New("test over"))
		<-ranC
		<-ranS
	})
	return cl, srv
}

func wait(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// 64 goroutines pipeline calls over one link; each must get the response to
// its own request, whatever order they complete in.
func TestLinkConcurrentCallersGetTheirOwnResponse(t *testing.T) {
	overPairs(t, func(t *testing.T, a, b net.Conn) {
		cl, _ := echoPair(t, a, b, func(op uint8, p []byte) ([]byte, error) {
			if op == 2 {
				return nil, fmt.Errorf("refused %s: %w", p, common.ErrNotFound)
			}
			return append([]byte("re:"), p...), nil
		})
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					msg := fmt.Sprintf("%d/%d", i, j)
					out, responded, err := cl.Call(1, []byte(msg))
					if err != nil || !responded || string(out) != "re:"+msg {
						t.Errorf("call %s = %q, %v, %v", msg, out, responded, err)
						return
					}
				}
				// A status the far end answered is typed, and responded.
				_, responded, err := cl.Call(2, []byte("x"))
				if !responded || !errors.Is(err, common.ErrNotFound) {
					t.Errorf("refused call = responded %v, %v; want a responded ErrNotFound", responded, err)
				}
			}(i)
		}
		wg.Wait()
		if d := cl.nc.Snapshot().PipelineDepth; d < 2 {
			t.Errorf("pipeline depth high-water = %d; 64 callers never overlapped", d)
		}
	})
}

// countingConn counts Write calls; failWrites makes them fail.
type countingConn struct {
	net.Conn
	writes     atomic.Int64
	failWrites atomic.Bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.failWrites.Load() {
		return 0, errors.New("injected write error")
	}
	return c.Conn.Write(p)
}

// Fail — from any number of goroutines — wakes every parked caller exactly
// once with the first cause, closes Done, and later calls return that cause
// without touching the connection.
func TestLinkFailOnceWakesEveryWaiter(t *testing.T) {
	overPairs(t, func(t *testing.T, a, b net.Conn) {
		ca := &countingConn{Conn: a}
		const callers = 32
		entered := make(chan struct{}, callers)
		release := make(chan struct{})
		cl, _ := echoPair(t, ca, b, func(uint8, []byte) ([]byte, error) {
			entered <- struct{}{}
			<-release
			return nil, nil
		})
		defer close(release)

		type outcome struct {
			responded bool
			err       error
		}
		results := make(chan outcome, 2*callers)
		for i := 0; i < callers; i++ {
			go func() {
				_, responded, err := cl.Call(1, nil)
				results <- outcome{responded, err}
			}()
		}
		for i := 0; i < callers; i++ {
			<-entered
		}
		cause := errors.New("the cause")
		for i := 0; i < 4; i++ {
			go cl.Fail(cause)
		}
		for i := 0; i < callers; i++ {
			select {
			case r := <-results:
				if r.responded || r.err == nil || r.err.Error() != "the cause: "+common.ErrUnreachable.Error() || !errors.Is(r.err, common.ErrUnreachable) {
					t.Fatalf("waiter woke with responded=%v err=%v; want the cause, unreachable, not responded", r.responded, r.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("only %d of %d waiters woke", i, callers)
			}
		}
		wait(t, "Done", cl.Done())
		if cl.Alive() {
			t.Fatal("failed link still alive")
		}
		select {
		case r := <-results:
			t.Fatalf("a waiter was woken twice: %+v", r)
		case <-time.After(20 * time.Millisecond):
		}

		before := ca.writes.Load()
		if _, responded, err := cl.Call(1, nil); responded || !errors.Is(err, common.ErrUnreachable) {
			t.Fatalf("call on a dead link = responded %v, %v", responded, err)
		}
		if w := ca.writes.Load(); w != before {
			t.Fatalf("call on a dead link wrote %d frames", w-before)
		}
	})
}

// A failed write is not a second failure path: it fails the link, and the
// caller is resolved by that like every other waiter.
func TestLinkWriteErrorFailsTheLink(t *testing.T) {
	overPairs(t, func(t *testing.T, a, b net.Conn) {
		ca := &countingConn{Conn: a}
		cl, srv := echoPair(t, ca, b, func(uint8, []byte) ([]byte, error) { return nil, nil })
		if _, _, err := cl.Call(1, nil); err != nil {
			t.Fatal(err)
		}
		ca.failWrites.Store(true)
		_, responded, err := cl.Call(1, nil)
		if responded || !errors.Is(err, common.ErrUnreachable) {
			t.Fatalf("call over a failing write = responded %v, %v; want unreachable, not responded", responded, err)
		}
		wait(t, "issuer Done", cl.Done())
		wait(t, "server Done (its peer closed)", srv.Done())
	})
}

// A response nobody waits for is dropped; a frame kind this end has nobody
// to give to — a request on a link that serves nothing, a control frame on
// one that expects none, a kind that does not exist — is a protocol
// violation: counted as a codec error, and the link fails.
func TestLinkStrayFrames(t *testing.T) {
	overPairs(t, func(t *testing.T, a, b net.Conn) {
		cl := NewLink(a, &NetCounters{}, false)
		ran := runLink(cl)
		defer func() { cl.Fail(errors.New("test over")); <-ran; b.Close() }()

		go io.Copy(io.Discard, b)
		if _, err := WriteFrame(b, nil, Frame{Kind: KindResponse, Op: 1, ID: 999}); err != nil {
			t.Fatal(err)
		}
		// The link is still up: a real exchange works after the stray.
		done := make(chan error, 1)
		go func() { _, _, err := cl.Call(1, nil); done <- err }()
		for cl.nc.FramesIn.Load() < 1 || cl.nc.FramesOut.Load() < 1 { // stray read, request written
			time.Sleep(time.Millisecond)
		}
		if !cl.Alive() || cl.nc.CodecErrors.Load() != 0 {
			t.Fatalf("a stray response killed the link (alive %v, codec errors %d)", cl.Alive(), cl.nc.CodecErrors.Load())
		}
		if _, err := WriteFrame(b, nil, Frame{Kind: KindResponse, Op: 1, ID: 1, Payload: AppendStatus(nil, nil)}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	for _, kind := range []uint8{KindRequest, KindControl, 9} {
		overPairs(t, func(t *testing.T, a, b net.Conn) {
			cl := NewLink(a, &NetCounters{}, false)
			ran := runLink(cl)
			go io.Copy(io.Discard, b)
			if _, err := WriteFrame(b, nil, Frame{Kind: kind, Op: 1, ID: 1}); err != nil {
				t.Fatal(err)
			}
			wait(t, fmt.Sprintf("kind %d to fail the link", kind), ran)
			if n := cl.nc.CodecErrors.Load(); n != 1 {
				t.Fatalf("kind %d: codec errors = %d, want 1", kind, n)
			}
			b.Close()
		})
	}
}

// Requests are served concurrently: a slow one does not hold up a fast one
// behind it on the same link.
func TestLinkSlowRequestDoesNotBlockFastOne(t *testing.T) {
	overPairs(t, func(t *testing.T, a, b net.Conn) {
		release := make(chan struct{})
		entered := make(chan struct{})
		cl, _ := echoPair(t, a, b, func(op uint8, p []byte) ([]byte, error) {
			if op == 1 {
				close(entered)
				<-release
			}
			return p, nil
		})
		slow := make(chan error, 1)
		go func() { _, _, err := cl.Call(1, nil); slow <- err }()
		<-entered
		if out, _, err := cl.Call(2, []byte("fast")); err != nil || string(out) != "fast" {
			t.Fatalf("fast call behind a slow one = %q, %v", out, err)
		}
		close(release)
		if err := <-slow; err != nil {
			t.Fatal(err)
		}
	})
}

// Run returns only after every handler it started has: the session server
// rolls open transactions back after Run, and a request still executing
// against one of them must not race that.
func TestLinkRunWaitsForHandlers(t *testing.T) {
	overPairs(t, func(t *testing.T, a, b net.Conn) {
		entered := make(chan struct{})
		release := make(chan struct{})
		srv := NewLink(b, &NetCounters{}, true)
		srv.Serve = func(uint8, []byte) ([]byte, error) {
			close(entered)
			<-release
			return nil, nil
		}
		ran := runLink(srv)
		go func() { _, _ = WriteFrame(a, nil, Frame{Kind: KindRequest, Op: 1, ID: 1}) }()
		<-entered
		a.Close()
		wait(t, "the link to notice its peer left", srv.Done())
		select {
		case <-ran:
			t.Fatal("Run returned with a handler still running")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		wait(t, "Run to return once the handler did", ran)
	})
}

// 100 links opened, used and failed leave no goroutine behind.
func TestLinkNoGoroutineLeak(t *testing.T) {
	for name, mk := range connPairs {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 100; i++ {
				a, b := mk(t)
				cl, srv := NewLink(a, nil, false), NewLink(b, nil, true)
				srv.Serve = func(_ uint8, p []byte) ([]byte, error) { return p, nil }
				ranC, ranS := runLink(cl), runLink(srv)
				if _, _, err := cl.Call(1, []byte("x")); err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					cl.Fail(errors.New("closed"))
				} else {
					srv.Fail(errors.New("closed"))
				}
				<-ranC
				<-ranS
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d at start, %d after 100 open/fail cycles", base, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// rstClose closes a TCP connection with SO_LINGER 0: the peer reads
// ECONNRESET, which is what a SIGKILLed process's connections look like
// when it had unread data.
func rstClose(t *testing.T, c net.Conn) {
	t.Helper()
	if err := c.(*net.TCPConn).SetLinger(0); err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// net.codec_errors counts streams the codec rejected and nothing else: a
// peer that resets the connection mid-session leaves it at 0; a length prefix
// below the frame header or above MaxFrame makes it 1.
func TestLinkCodecErrorsCountOnlyTheCodec(t *testing.T) {
	helloHex := AppendFrame(nil, Frame{Kind: KindControl, Op: SessHello, Payload: AppendHello(nil, SessionProtoVersion, "t")})
	for name, tc := range map[string]struct {
		after func(t *testing.T, c net.Conn) // what the client does after its hello is acked
		want  int64
	}{
		"reset":           {func(t *testing.T, c net.Conn) { rstClose(t, c) }, 0},
		"eof mid-frame":   {func(t *testing.T, c net.Conn) { c.Write([]byte{20, 0, 0, 0, 1}); c.Close() }, 0},
		"length < header": {func(t *testing.T, c net.Conn) { c.Write([]byte{9, 0, 0, 0}) }, 1},
		"length > max":    {func(t *testing.T, c net.Conn) { c.Write(AppendU32(nil, MaxFrame+1)) }, 1},
	} {
		t.Run(name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			nc := &NetCounters{}
			srv := ServeSessions(lis, "stub", newStubBackend(), nc)
			defer srv.Close()
			c, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(helloHex); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReadFrame(c, nil); err != nil {
				t.Fatal(err)
			}
			// A request in flight makes the reset a reset: the server has
			// written a response the client never read.
			if _, err := WriteFrame(c, nil, Frame{Kind: KindRequest, Op: OpPing, ID: 1}); err != nil {
				t.Fatal(err)
			}
			for nc.FramesOut.Load() < 2 {
				time.Sleep(time.Millisecond)
			}
			tc.after(t, c)
			deadline := time.Now().Add(5 * time.Second)
			for nc.Snapshot().ConnsOpen != 0 {
				if time.Now().After(deadline) {
					t.Fatal("session never ended")
				}
				time.Sleep(time.Millisecond)
			}
			if got := nc.CodecErrors.Load(); got != tc.want {
				t.Fatalf("codec errors = %d, want %d", got, tc.want)
			}
		})
	}
}

// The link must not cost more per round trip than the cheaper of the two
// implementations it replaced. Measured at the parent commit with this
// harness (loopback TCP, issuer and server in one process, mallocs counted
// process-wide): a session ping, sessionConn↔session, 8 allocations; a
// zero-length fabric read issued on a peerLink, 8 (TestPeerLinkRoundTripAllocs
// is that half). A bare link with a handler that does nothing is under both,
// and a call starts no goroutine on the issuer and at most one on the server
// (none once a worker is parked there).
func TestLinkRoundTripAllocs(t *testing.T) {
	const parent = 8
	_, addr := serveStub(t, newStubBackend())
	cl, err := DialSession(addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if a := testing.AllocsPerRun(1000, func() {
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
	}); a > parent {
		t.Errorf("session ping: %.1f allocs per round trip, parent %d", a, parent)
	}

	a, b := connPairs["loopback"](t)
	link, _ := echoPair(t, a, b, func(uint8, []byte) ([]byte, error) { return nil, nil })
	if _, _, err := link.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if a := testing.AllocsPerRun(1000, func() {
		if _, _, err := link.Call(1, nil); err != nil {
			t.Fatal(err)
		}
		if g := runtime.NumGoroutine(); g > base+1 {
			t.Fatalf("%d goroutines during a call, %d before: more than the one serving it", g, base)
		}
	}); a > parent {
		t.Errorf("bare link: %.1f allocs per round trip, parent %d", a, parent)
	}
}

// deepStack recurses depth frames of about 256 bytes each: a handler whose
// stack a fresh goroutine would have to grow.
//
//go:noinline
func deepStack(depth int) byte {
	var pad [256]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		return pad[0]
	}
	return deepStack(depth-1) + pad[(depth+1)%len(pad)]
}

func deepHandler(_ uint8, p []byte) ([]byte, error) {
	deepStack(40)
	return p, nil
}

// Sequential requests reuse the worker that served the one before: 1,000
// calls start at most two (a request may arrive before the worker that
// answered the last one has parked).
func TestLinkReusesWorkers(t *testing.T) {
	// With more Ps than cores the OS can deschedule a worker between its
	// answer and its park for a whole round trip, and a third worker then
	// starts: correct, but not the reuse this test counts.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	a, b := connPairs["loopback"](t)
	cl, srv := NewLink(a, &NetCounters{}, false), NewLink(b, &NetCounters{}, true)
	srv.Serve = deepHandler
	ranC, ranS := runLink(cl), runLink(srv)
	for i := 0; i < 1000; i++ {
		if _, _, err := cl.Call(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	cl.Fail(errors.New("test over"))
	wait(t, "client Run", ranC)
	wait(t, "server Run", ranS)
	if srv.started > 2 {
		t.Fatalf("1000 sequential calls started %d workers, want at most 2", srv.started)
	}
}

// Busy workers never hold a request up: with eight handlers parked on a gate,
// a ninth request is answered before the gate opens.
func TestLinkBusyWorkersDoNotStallARequest(t *testing.T) {
	overPairs(t, func(t *testing.T, a, b net.Conn) {
		gate := make(chan struct{})
		entered := make(chan struct{}, 8)
		cl, _ := echoPair(t, a, b, func(op uint8, p []byte) ([]byte, error) {
			if op == 1 {
				entered <- struct{}{}
				<-gate
			}
			return p, nil
		})
		gated := make(chan error, 8)
		for i := 0; i < 8; i++ {
			go func() { _, _, err := cl.Call(1, nil); gated <- err }()
		}
		for i := 0; i < 8; i++ {
			<-entered
		}
		if out, _, err := cl.Call(2, []byte("ninth")); err != nil || string(out) != "ninth" {
			t.Fatalf("ninth call behind eight gated ones = %q, %v", out, err)
		}
		close(gate)
		for i := 0; i < 8; i++ {
			if err := <-gated; err != nil {
				t.Fatal(err)
			}
		}
	})
}

// Fail leaves no worker behind: once Run has returned, a link that kept the
// full cap of workers parked has no goroutine left.
func TestLinkRunReturnsWithNoWorkerLeft(t *testing.T) {
	overPairs(t, func(t *testing.T, a, b net.Conn) {
		base := runtime.NumGoroutine()
		cl, srv := NewLink(a, &NetCounters{}, false), NewLink(b, &NetCounters{}, true)
		gate := make(chan struct{})
		srv.Serve = func(_ uint8, p []byte) ([]byte, error) { <-gate; return p, nil }
		ranC, ranS := runLink(cl), runLink(srv)
		const calls = 2 * maxParkedWorkers
		var wg sync.WaitGroup
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := cl.Call(1, nil); err != nil {
					t.Error(err)
				}
			}()
		}
		for srv.nc.Snapshot().PipelineDepth < calls { // every call is in a handler
			runtime.Gosched()
		}
		close(gate)
		wg.Wait()
		for srv.parked.Load() < maxParkedWorkers {
			runtime.Gosched()
		}
		srv.Fail(errors.New("test over"))
		wait(t, "client Run", ranC)
		wait(t, "server Run", ranS)
		// A goroutine that has signalled its exit is counted until the
		// runtime has torn it down (longer when the OS deschedules its
		// thread); yielding lets that finish, and waits on nothing that
		// could still run a handler.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if g := runtime.NumGoroutine(); g > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before the link, %d after Run returned\n%s", base, g, buf[:runtime.Stack(buf, true)])
		}
	})
}

// BenchmarkLinkServeDeepStack is one loopback round trip to a handler that
// recurses through about 10 KB of stack.
func BenchmarkLinkServeDeepStack(b *testing.B) {
	c1, c2 := connPairs["loopback"](b)
	cl, _ := echoPair(b, c1, c2, deepHandler)
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Call(1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
