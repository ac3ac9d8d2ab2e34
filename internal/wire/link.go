package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"polardbmp/internal/common"
)

// Link owns one framed connection and is the only pipelined-connection state
// machine in the tree: the session client, the session server and the socket
// fabric's peer links are each a Link plus what is their own. Either end may
// issue requests. Writes are serialized and reuse one scratch buffer; Call
// parks its caller in a waiter table keyed by frame id; Run, the one read
// loop, wakes the waiter a response names, hands a request to a parked worker
// goroutine (starting one only when none is parked) that runs Serve and
// answers [status][result] under the request's op and id, and hands control
// frames to Control. The first failure of any kind closes the connection,
// wakes every waiter with the cause and closes Done.
//
// Serve and the two hooks are set by the owner before Run and never change.
type Link struct {
	conn net.Conn
	nc   *NetCounters

	// Serve answers one request (payload is the handler's to keep). A link
	// without it serves nothing: a request is then a protocol violation.
	Serve func(op uint8, payload []byte) ([]byte, error)
	// Control, the first hook, takes the control frames that arrive after
	// the handshake, on the read loop (the payload is valid only during the
	// call). A link without it expects none.
	Control func(f Frame)
	// Admit, the second hook, is asked about every frame about to be written
	// (recv false) and every frame just read (recv true); false discards the
	// frame as if the network had: nothing is written, counted or delivered.
	// The fabric's black-hole fault and its idle clock are this hook.
	Admit func(recv bool) bool

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	nextID  uint64
	waiters map[uint64]chan linkResult
	dead    error

	done chan struct{}
	// work hands a request to a parked worker; unbuffered, so a send
	// succeeds only when a worker is waiting for it.
	work    chan Frame
	parked  atomic.Int32
	started int // workers Run has started (read by tests)
	workers sync.WaitGroup
}

// maxParkedWorkers caps the workers a link keeps parked between requests. A
// worker keeps the stack it grew serving, so a reused one serves the next
// request without growing it again; a worker finishing while the cap is full
// exits, so a burst of pipelined requests does not leave a goroutine each.
const maxParkedWorkers = 4

// linkResult carries one response, or the cause of death, out to a waiter.
type linkResult struct {
	payload []byte
	err     error
}

// NewLink wraps a connection whose handshake is done and counts it open.
// Nothing is read until Run.
func NewLink(conn net.Conn, nc *NetCounters, accepted bool) *Link {
	nc.ConnOpened(accepted)
	return &Link{conn: conn, nc: nc, waiters: make(map[uint64]chan linkResult), done: make(chan struct{}), work: make(chan Frame)}
}

// IsCodecError reports whether a framed read ended because the stream itself
// was malformed. A peer that hung up, reset the connection or timed out
// produced no codec error, however abruptly it left.
func IsCodecError(err error) bool {
	return errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooLarge)
}

// Done is closed once the link has failed.
func (l *Link) Done() <-chan struct{} { return l.done }

// Alive reports whether the link has not failed yet.
func (l *Link) Alive() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead == nil
}

// Send writes one frame. A write error fails the link.
func (l *Link) Send(f Frame) error {
	if l.Admit != nil && !l.Admit(false) {
		return nil
	}
	l.wmu.Lock()
	var err error
	l.wbuf, err = WriteFrame(l.conn, l.wbuf, f)
	l.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("wire: send: %v: %w", err, common.ErrUnreachable)
		l.Fail(err)
		return err
	}
	l.nc.FrameOut(f.WireSize())
	return nil
}

// Call issues one request and blocks for its response. responded reports
// whether a response frame came back: with it, err is the status the far end
// answered; without it, err is what killed the link (always matching
// common.ErrUnreachable) and the request may or may not have run.
func (l *Link) Call(op uint8, payload []byte) (result []byte, responded bool, err error) {
	ch := make(chan linkResult, 1)
	l.mu.Lock()
	if l.dead != nil {
		err := l.dead
		l.mu.Unlock()
		return nil, false, err
	}
	l.nextID++
	id := l.nextID
	l.waiters[id] = ch
	l.mu.Unlock()

	l.nc.EnterOp()
	defer l.nc.LeaveOp()
	// A failed write fails the link, which resolves ch like any other death;
	// a response that raced it in is still used.
	_ = l.Send(Frame{Kind: KindRequest, Op: op, ID: id, Payload: payload})
	res := <-ch
	if res.err != nil {
		return nil, false, res.err
	}
	rd := NewReader(res.payload)
	if err := DecodeStatus(rd); err != nil {
		return nil, true, err
	}
	return rd.Rest(), true, nil
}

// Fail kills the link once: close the connection, wake every waiter with
// cause, close Done. Later calls are no-ops and later Calls return cause
// without writing.
func (l *Link) Fail(cause error) {
	if !errors.Is(cause, common.ErrUnreachable) {
		cause = fmt.Errorf("%v: %w", cause, common.ErrUnreachable)
	}
	l.mu.Lock()
	if l.dead != nil {
		l.mu.Unlock()
		return
	}
	l.dead = cause
	waiters := l.waiters
	l.waiters = nil
	l.mu.Unlock()
	_ = l.conn.Close()
	l.nc.ConnClosed()
	for _, ch := range waiters {
		ch <- linkResult{err: cause}
	}
	close(l.done)
}

// Run is the read loop. It returns once the link has failed and every
// worker it started has exited, so an owner that cleans up after Run (the
// session server rolling back open transactions) races no request.
func (l *Link) Run() {
	defer l.workers.Wait()
	br := bufio.NewReader(l.conn) // one read(2) per frame, not one per prefix and body
	var buf []byte
	for {
		f, b, err := ReadFrame(br, buf)
		if err != nil {
			if IsCodecError(err) {
				l.nc.CodecError()
			}
			l.Fail(fmt.Errorf("wire: connection lost: %v: %w", err, common.ErrUnreachable))
			return
		}
		buf = b
		if l.Admit != nil && !l.Admit(true) {
			continue
		}
		l.nc.FrameIn(f.WireSize())
		switch {
		case f.Kind == KindResponse:
			l.mu.Lock()
			ch := l.waiters[f.ID]
			delete(l.waiters, f.ID)
			l.mu.Unlock()
			if ch != nil { // an id nobody waits for is dropped
				ch <- linkResult{payload: append([]byte(nil), f.Payload...)}
			}
		case f.Kind == KindRequest && l.Serve != nil:
			l.nc.EnterOp()
			req := Frame{Op: f.Op, ID: f.ID, Payload: append([]byte(nil), f.Payload...)}
			select {
			case l.work <- req:
			default: // every worker is busy: no request waits for one
				l.started++
				l.workers.Add(1)
				go l.worker(req)
			}
		case f.Kind == KindControl && l.Control != nil:
			l.Control(f)
		default:
			// An unknown kind, or one this end has nobody to give to: the
			// stream cannot be trusted past it.
			l.nc.CodecError()
			l.Fail(fmt.Errorf("wire: unexpected frame kind %d op %d: %w", f.Kind, f.Op, ErrBadFrame))
			return
		}
	}
}

// worker serves req, then parks for the next request the read loop hands it,
// until the link fails or the parked cap is full.
func (l *Link) worker(req Frame) {
	defer l.workers.Done()
	for {
		result, err := l.Serve(req.Op, req.Payload)
		l.nc.LeaveOp()
		resp := AppendStatus(make([]byte, 0, 6+len(result)), err)
		_ = l.Send(Frame{Kind: KindResponse, Op: req.Op, ID: req.ID, Payload: append(resp, result...)})
		if l.parked.Add(1) > maxParkedWorkers {
			l.parked.Add(-1)
			return
		}
		select {
		case req = <-l.work:
			l.parked.Add(-1)
		case <-l.done:
			return
		}
	}
}
