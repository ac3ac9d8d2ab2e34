package wire

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"polardbmp/internal/common"
)

// Dial is the dial side of every connection in the tree (the session client,
// the fabric peer and the gateway's backend dial): a TCP dial, then the hello
// control frame written and its ack read under one deadline, the connection
// closed if either fails. It returns the open connection, the ack's whole
// payload and the part after its status; a refusal is returned as the typed
// error the acceptor sent. A failed TCP dial, and only that, wraps the
// *net.OpError it came from.
func Dial(addr string, nc *NetCounters, hello Frame, ackOp uint8, timeout time.Duration) (conn net.Conn, ack, body []byte, err error) {
	conn, err = net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wire: dial %s: %w: %w", addr, err, common.ErrUnreachable)
	}
	ack, body, err = handshake(conn, nc, hello, ackOp, timeout)
	if err != nil {
		_ = conn.Close()
		return nil, nil, nil, err
	}
	return conn, ack, body, nil
}

// handshake runs on a connection no read loop owns yet.
func handshake(conn net.Conn, nc *NetCounters, hello Frame, ackOp uint8, timeout time.Duration) (ack, body []byte, err error) {
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := WriteFrame(conn, nil, hello); err != nil {
		return nil, nil, fmt.Errorf("wire: hello: %v: %w", err, common.ErrUnreachable)
	}
	nc.FrameOut(hello.WireSize())
	f, _, err := ReadFrame(conn, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: hello ack: %v: %w", err, common.ErrUnreachable)
	}
	nc.FrameIn(f.WireSize())
	if f.Kind != KindControl || f.Op != ackOp {
		return nil, nil, fmt.Errorf("wire: hello ack kind %d op %d: %w", f.Kind, f.Op, ErrBadFrame)
	}
	rd := NewReader(f.Payload)
	if err := DecodeStatus(rd); err != nil {
		return nil, nil, fmt.Errorf("wire: handshake refused: %w", err)
	}
	return f.Payload, rd.Rest(), nil
}

// Redial holds at most one live link to one peer, for an owner that dials:
// the session client and the fabric peer each keep one. Get hands out the
// live link, or dials a new one when it finds the link dead. The dial runs
// with no lock held, and callers that arrive while it runs wait for it and
// share its result. A failed dial opens a backoff window (redialBackoffMin
// doubling to redialBackoffMax, ±25% jitter) inside which Get fails at once
// with ErrUnreachable, so a dead peer costs one dial per window instead of
// one per call, and a fleet of clients does not stampede a restarted peer; a
// successful dial closes the window.
type Redial[L link] struct {
	name string
	dial func() (L, error)

	mu       sync.Mutex
	link     L               // the newest dialed link, live or dead; zero before the first
	dialing  *pendingDial[L] // the dial in flight, nil when none is
	backoff  time.Duration   // undithered; zero after a successful dial
	notUntil time.Time       // no dial before this
	closed   error           // set by Close
}

// link is what a Redial holds: a *Link, or an owner's type wrapping one.
type link interface {
	comparable
	Alive() bool
	Fail(error)
}

// pendingDial is one dial in flight; done is closed once link and err hold
// its result.
type pendingDial[L any] struct {
	done chan struct{}
	link L
	err  error
}

// NewRedial returns a Redial that makes each new link with dial. name
// identifies the peer in the errors Redial itself returns.
func NewRedial[L link](name string, dial func() (L, error)) *Redial[L] {
	return &Redial[L]{name: name, dial: dial}
}

// Get returns the live link, dialing one if there is none.
func (r *Redial[L]) Get() (L, error) {
	var zero L
	r.mu.Lock()
	if r.closed != nil {
		r.mu.Unlock()
		return zero, r.closed
	}
	if r.link != zero && r.link.Alive() {
		l := r.link
		r.mu.Unlock()
		return l, nil
	}
	if d := r.dialing; d != nil {
		r.mu.Unlock()
		<-d.done
		return d.link, d.err
	}
	if time.Now().Before(r.notUntil) {
		r.mu.Unlock()
		return zero, fmt.Errorf("wire: %s: redial backoff: %w", r.name, common.ErrUnreachable)
	}
	d := &pendingDial[L]{done: make(chan struct{})}
	r.dialing = d
	r.mu.Unlock()

	d.link, d.err = r.dial()
	stale := zero
	r.mu.Lock()
	r.dialing = nil
	switch {
	case d.err != nil:
		r.backoff = nextBackoff(r.backoff)
		r.notUntil = time.Now().Add(jittered(r.backoff))
	case r.closed != nil: // closed while dialing
		stale, d.link, d.err = d.link, zero, r.closed
	default:
		r.link, r.backoff, r.notUntil = d.link, 0, time.Time{}
	}
	r.mu.Unlock()
	if stale != zero {
		stale.Fail(d.err)
	}
	close(d.done)
	return d.link, d.err
}

// Last returns the newest dialed link, live or not (zero before the first).
func (r *Redial[L]) Last() L {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.link
}

// Close fails the link with cause; every later Get returns cause.
func (r *Redial[L]) Close(cause error) {
	var zero L
	r.mu.Lock()
	if r.closed == nil {
		r.closed = cause
	}
	l := r.link
	r.mu.Unlock()
	if l != zero {
		l.Fail(cause)
	}
}

// Redial backoff bounds.
const (
	redialBackoffMin = 50 * time.Millisecond
	redialBackoffMax = 2 * time.Second
)

// nextBackoff returns the undithered backoff that follows cur: the minimum
// after a success, doubling up to the maximum. Jitter is applied separately
// when the window is set, so repeated doubling never compounds the dither.
func nextBackoff(cur time.Duration) time.Duration {
	if cur < redialBackoffMin {
		return redialBackoffMin
	}
	return min(cur*2, redialBackoffMax)
}

// jittered spreads d by ±25%.
func jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
}
