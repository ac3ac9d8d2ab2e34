package wire

import (
	"net"
	"sync"
	"time"
)

// HelloTimeout bounds how long an accepted connection may take to send its
// hello: a client that connects and says nothing holds a goroutine and an fd
// for this long, not until Close.
const HelloTimeout = 3 * time.Second

// Acceptor is the one accept site of the tree: the session server, the
// fabric server and the gateway each run on one. It accepts on a listener,
// reads every connection's hello under HelloTimeout, and hands a connection
// whose first frame is the protocol's hello control frame to serve, on the
// connection's own goroutine. What the hello says, and whether the
// connection is refused, is the protocol's: serve decodes the payload and
// answers with WriteAck. The connection is closed when serve returns.
type Acceptor struct {
	lis            net.Listener
	nc             *NetCounters
	helloOp, ackOp uint8
	serve          func(conn net.Conn, hello Frame)

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // every accepted connection not yet served out
	closed bool
	wg     sync.WaitGroup // the accept loop and every connection's goroutine
}

// Accept starts accepting on lis. A connection's first frame must be a
// control frame with op helloOp; serve then owns the connection until it
// returns. nc counts the hello in frames_in, and a first frame that is not
// a hello as a codec error.
func Accept(lis net.Listener, nc *NetCounters, helloOp, ackOp uint8, serve func(conn net.Conn, hello Frame)) *Acceptor {
	a := &Acceptor{lis: lis, nc: nc, helloOp: helloOp, ackOp: ackOp, serve: serve, conns: make(map[net.Conn]struct{})}
	a.wg.Add(1)
	go a.acceptLoop()
	return a
}

// Addr returns the listener address.
func (a *Acceptor) Addr() net.Addr { return a.lis.Addr() }

// Live returns the number of accepted connections still open: waiting for
// their hello or being served.
func (a *Acceptor) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.conns)
}

// Close stops accepting, closes every accepted connection, whether it is
// still waiting for its hello or already served, and waits for every
// connection's goroutine to return.
func (a *Acceptor) Close() {
	a.mu.Lock()
	a.closed = true
	for c := range a.conns {
		_ = c.Close()
	}
	a.mu.Unlock()
	_ = a.lis.Close()
	a.wg.Wait()
}

func (a *Acceptor) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.lis.Accept()
		if err != nil {
			return
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			_ = conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go a.run(conn)
	}
}

// run reads conn's hello and serves it, then closes and forgets conn.
func (a *Acceptor) run(conn net.Conn) {
	defer a.wg.Done()
	defer func() {
		_ = conn.Close()
		a.mu.Lock()
		delete(a.conns, conn)
		a.mu.Unlock()
	}()
	_ = conn.SetReadDeadline(time.Now().Add(HelloTimeout))
	f, _, err := ReadFrame(conn, nil)
	if err != nil {
		if IsCodecError(err) {
			a.nc.CodecError()
		}
		return
	}
	a.nc.FrameIn(f.WireSize())
	if f.Kind != KindControl || f.Op != a.helloOp {
		a.nc.CodecError()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	a.serve(conn, f)
}

// WriteAck answers hello on conn with the protocol's hello-ack carrying
// payload, under the hello's id.
func (a *Acceptor) WriteAck(conn net.Conn, hello Frame, payload []byte) error {
	ack := Frame{Kind: KindControl, Op: a.ackOp, ID: hello.ID, Payload: payload}
	if _, err := WriteFrame(conn, nil, ack); err != nil {
		return err
	}
	a.nc.FrameOut(ack.WireSize())
	return nil
}
