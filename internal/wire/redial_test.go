package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// testListener counts its accepts, delays the first write on each accepted
// connection (a session server's hello ack) by ackDelay, and while refuse is
// set closes what it accepts instead of handing it to the server.
type testListener struct {
	net.Listener
	ackDelay time.Duration
	refuse   atomic.Bool
	accepts  atomic.Int32

	mu    sync.Mutex
	conns []net.Conn
}

func (l *testListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.accepts.Add(1)
		if l.refuse.Load() {
			_ = c.Close()
			continue
		}
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
		return &slowAckConn{Conn: c, delay: l.ackDelay}, nil
	}
}

// cut closes every connection the server was handed.
func (l *testListener) cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		_ = c.Close()
	}
}

type slowAckConn struct {
	net.Conn
	delay time.Duration
	once  sync.Once
}

func (c *slowAckConn) Write(b []byte) (int, error) {
	c.once.Do(func() { time.Sleep(c.delay) })
	return c.Conn.Write(b)
}

// serveCounted serves a stub backend behind a testListener and returns a
// client dialed to it whose link the server has already cut.
func serveCounted(t *testing.T, ackDelay time.Duration) (*testListener, *Client) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &testListener{Listener: lis, ackDelay: ackDelay}
	srv := ServeSessions(tl, "stub", newStubBackend(), &NetCounters{})
	t.Cleanup(srv.Close)
	cl, err := DialSession(lis.Addr().String(), SessionConfig{Name: "redial-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	first := cl.link.Last()
	tl.cut()
	wait(t, "the client to see its link cut", first.Done())
	return tl, cl
}

// Callers that find the link dead together share one dial: the listener,
// whose hello ack takes 100 ms, accepts once more, not once per caller.
func TestRedialConcurrentCallersShareOneDial(t *testing.T) {
	tl, cl := serveCounted(t, 100*time.Millisecond)
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- cl.Ping()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("ping after redial: %v", err)
		}
	}
	if n := tl.accepts.Load(); n != 2 {
		t.Fatalf("%d accepts for the first dial and %d concurrent callers; want 2", n, callers)
	}
}

// After a failed dial, calls inside the backoff window fail at once with
// ErrUnreachable and dial nothing; once the window has passed, a call
// redials.
func TestRedialBacksOffAfterFailedDial(t *testing.T) {
	tl, cl := serveCounted(t, 0)
	tl.refuse.Store(true)
	for i := 0; i < 5; i++ {
		if err := cl.Ping(); !errors.Is(err, common.ErrUnreachable) {
			t.Fatalf("ping %d to a refusing server = %v; want ErrUnreachable", i, err)
		}
	}
	if n := tl.accepts.Load(); n != 2 {
		t.Fatalf("%d accepts for the first dial and 5 calls against a refusing server; want 2", n)
	}
	tl.refuse.Store(false)
	deadline := time.Now().Add(2 * redialBackoffMax)
	for cl.Ping() != nil {
		if time.Now().After(deadline) {
			t.Fatal("client never redialed after the backoff window")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A Redial closed while its dial runs hands nobody the new link: the dialer
// gets the close cause, and the link it dialed is failed.
func TestRedialCloseDuringDial(t *testing.T) {
	release := make(chan struct{})
	var dialed *Link
	a, b := net.Pipe()
	defer b.Close()
	r := NewRedial("pipe", func() (*Link, error) {
		<-release
		dialed = NewLink(a, nil, false)
		return dialed, nil
	})
	got := make(chan error, 1)
	go func() {
		_, err := r.Get()
		got <- err
	}()
	cause := errors.New("closed by test")
	for {
		r.mu.Lock()
		inFlight := r.dialing != nil
		r.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r.Close(cause)
	close(release)
	if err := <-got; err != cause {
		t.Fatalf("Get during Close = %v; want the close cause", err)
	}
	if dialed.Alive() {
		t.Fatal("the link dialed during Close is alive")
	}
	if _, err := r.Get(); err != cause {
		t.Fatalf("Get after Close = %v; want the close cause", err)
	}
}

func TestRedialBackoffBounds(t *testing.T) {
	// Doubling from the floor, clamped at the ceiling.
	cur := time.Duration(0)
	var seq []time.Duration
	for i := 0; i < 10; i++ {
		cur = nextBackoff(cur)
		seq = append(seq, cur)
	}
	if seq[0] != redialBackoffMin {
		t.Fatalf("first backoff %v, want %v", seq[0], redialBackoffMin)
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] < seq[i-1] {
			t.Fatalf("backoff not monotone: %v", seq)
		}
		if seq[i] > redialBackoffMax {
			t.Fatalf("backoff exceeded max: %v", seq)
		}
	}
	if seq[len(seq)-1] != redialBackoffMax {
		t.Fatalf("backoff never reached max: %v", seq)
	}
	// Jitter stays within ±25%.
	for i := 0; i < 1000; i++ {
		d := jittered(time.Second)
		if d < 750*time.Millisecond || d > 1250*time.Millisecond {
			t.Fatalf("jitter out of bounds: %v", d)
		}
	}
}
