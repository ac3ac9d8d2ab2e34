package gateway

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// session is one proxied client connection, pinned to a backend but
// movable. Each fact has one owner. The request loop owns the pin (b,
// upstream, pumpDone): it alone re-pins, enters requests in the ledger and
// writes them upstream, each at most once, to the upstream pinned when it
// was entered. A session only migrates when its ledger holds no request in
// flight and no open transaction handle, so the swap never strands a
// response.
//
// The pump owns its upstream's death. However it ends — the backend died
// (SIGKILL, partition), a cutover or the session's end closed the
// upstream, a client write failed — it answers every request still in the
// ledger with a typed status (ErrCommitAmbiguous for an OpCommit whose
// outcome the backend may have taken with it; the client resolves it via
// OpTxStatus/ResolveTx against a survivor. ErrUnreachable for everything
// else), marks the transaction handles opened on that upstream stale, so
// later requests against them fail typed at the gateway instead of
// confusing the next backend, and marks the session down. The request loop
// re-pins a down session at the next client frame.
type session struct {
	gw     *Gateway
	client net.Conn
	hello  []byte // client hello payload, replayed at every re-pin

	// The pin: touched by the request loop only.
	b        *backend
	upstream net.Conn
	pumpDone chan struct{}

	// cmu serializes writes to the client between the pump and the
	// stale-transaction synthesizer in the request loop.
	cmu sync.Mutex

	// pmu guards the session ledger and the down mark. pending remembers
	// enough of each forwarded request to synthesize its response if its
	// upstream dies first; liveTx holds handles opened on the current
	// upstream, staleTx those stranded on dead ones. down is nil while the
	// pinned upstream's pump runs, and what ended it after.
	pmu     sync.Mutex
	pending map[uint64]pendingReq
	liveTx  map[uint64]bool
	staleTx map[uint64]bool
	down    error
}

// errClientGone marks a session whose pump could not write to the client:
// the session ends rather than re-pin, and no backend is blamed.
var errClientGone = errors.New("gateway: client write failed")

// pendingReq is what the pump needs to answer one in-flight request: the op
// (an OpCommit becomes ErrCommitAmbiguous, anything else ErrUnreachable) and
// the transaction handle it referenced, if any.
type pendingReq struct {
	op uint8
	tx uint64
}

// txHandleOp reports requests whose payload leads with a transaction handle.
func txHandleOp(op uint8) bool { return op >= wire.OpGet && op <= wire.OpRollback }

// backendTimeout bounds a backend dial and, separately, its hello exchange.
const backendTimeout = 3 * time.Second

// dialBackend dials b and runs the session handshake with the given client
// hello payload, returning the open conn and the backend's hello-ack payload
// (the backend's verdict; a refused handshake is returned as an error). Dial
// and handshake are each bounded, so a backend that accepts and then says
// nothing costs a timeout, not the session.
func (gw *Gateway) dialBackend(b *backend, hello []byte) (net.Conn, []byte, error) {
	hf := wire.Frame{Kind: wire.KindControl, Op: wire.SessHello, Payload: hello}
	conn, ack, _, err := wire.Dial(b.addr, nil, hf, wire.SessHelloAck, backendTimeout)
	// Only a failed TCP dial, the one error wire.Dial wraps a *net.OpError
	// in, counts against the backend; a hello it refused or never answered
	// does not.
	var dialErr *net.OpError
	if errors.As(err, &dialErr) {
		b.mu.Lock()
		b.failLocked(err)
		b.mu.Unlock()
	}
	if err != nil {
		return nil, nil, err
	}
	return conn, ack, nil
}

// serve pins one client session to one backend and proxies frames both ways
// until the client hangs up or no backend is left. The gateway terminates
// the handshake read so it can replay the client's hello on a re-pin, but
// relays the backend's ack verbatim — the client still sees the backend's
// name and the negotiated protocol version end to end.
func (gw *Gateway) serve(client net.Conn, hf wire.Frame) {
	hello := hf.Payload
	b := gw.pick(nil)
	if b == nil {
		return
	}
	upstream, ack, err := gw.dialBackend(b, hello)
	if err != nil {
		return
	}
	gw.nc.ConnOpened(true)
	defer gw.nc.ConnClosed()
	if err := gw.acc.WriteAck(client, hf, ack); err != nil {
		_ = upstream.Close()
		return
	}

	b.mu.Lock()
	b.active++
	b.sessions++
	b.mu.Unlock()

	s := &session{
		gw: gw, client: client, hello: hello, b: b, upstream: upstream,
		pumpDone: make(chan struct{}),
		pending:  make(map[uint64]pendingReq),
		liveTx:   make(map[uint64]bool),
		staleTx:  make(map[uint64]bool),
	}
	go s.pump(upstream, s.pumpDone)
	s.requestLoop()

	_ = s.upstream.Close()
	<-s.pumpDone
	s.b.mu.Lock()
	s.b.active--
	s.b.mu.Unlock()
}

// requestLoop reads client frames and forwards them upstream. An OpBegin
// at a transaction boundary on a draining backend first moves the session
// (migrate). Every frame then enters in one pmu section that finds the
// session up, re-pinning a down session first: a request against a stale
// handle is answered here, any other request enters the ledger, and the
// frame is written once to the upstream it entered on. A failed write
// closes that upstream and waits for its pump, which answers the request.
func (s *session) requestLoop() {
	br := bufio.NewReader(s.client) // one read(2) per frame, not one per prefix and body
	var rbuf, wbuf []byte
	for {
		f, buf, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			if wire.IsCodecError(err) {
				s.gw.nc.CodecError()
			}
			return
		}
		rbuf = buf
		s.gw.nc.FrameIn(f.WireSize())
		if f.Kind == wire.KindRequest && f.Op == wire.OpBegin {
			s.migrate()
		}
		s.pmu.Lock()
		for s.down != nil {
			down := s.down
			s.pmu.Unlock()
			if !s.rescue(down) {
				return
			}
			s.pmu.Lock()
		}
		stale := false
		if f.Kind == wire.KindRequest {
			var tx uint64
			if txHandleOp(f.Op) {
				tx = wire.NewReader(f.Payload).U64()
				stale = s.staleTx[tx]
			}
			if !stale {
				s.pending[f.ID] = pendingReq{op: f.Op, tx: tx}
			}
		}
		s.pmu.Unlock()
		if stale {
			// The handle belongs to a backend that died: answer here
			// instead of confusing the new backend with a foreign id. The
			// dead backend rolled the transaction back when the gateway's
			// connection to it dropped, so a rollback is trivially
			// satisfied and anything else failed transient — a commit for
			// a stale handle was never sent anywhere, so it is a plain
			// failure, not an ambiguous one.
			if f.Op == wire.OpRollback {
				s.synthesize(f.ID, f.Op, nil)
			} else {
				s.synthesize(f.ID, f.Op, common.ErrUnreachable)
			}
			continue
		}
		if wbuf, err = wire.WriteFrame(s.upstream, wbuf, f); err != nil {
			_ = s.upstream.Close()
			<-s.pumpDone
		}
	}
}

// idle reports a transaction boundary: the session is up, with no request
// in flight and no transaction handle open on the current upstream.
func (s *session) idle() bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.down == nil && len(s.pending) == 0 && len(s.liveTx) == 0
}

// synthesize answers one client request at the gateway with a typed status.
func (s *session) synthesize(id uint64, op uint8, err error) {
	f := wire.Frame{Kind: wire.KindResponse, Op: op, ID: id, Payload: wire.AppendStatus(nil, err)}
	s.cmu.Lock()
	_, werr := wire.WriteFrame(s.client, nil, f)
	s.cmu.Unlock()
	if werr == nil {
		s.gw.nc.FrameOut(f.WireSize())
	}
}

// rescue re-pins a session whose pump ended with down, once that pump has
// answered the ledger: it marks the old backend failed and moves to the
// best other one with a replayed hello. It returns false when the session
// is over: the client is gone, or no backend is left (the client's next
// connect lands on whatever the gateway has then).
func (s *session) rescue(down error) bool {
	<-s.pumpDone
	if down == errClientGone {
		return false
	}
	_ = s.upstream.Close()
	s.b.mu.Lock()
	s.b.failLocked(errors.New("session upstream died"))
	s.b.mu.Unlock()
	nb := s.gw.pick(s.b)
	if nb == nil {
		return false
	}
	conn, _, err := s.gw.dialBackend(nb, s.hello)
	if err != nil {
		return false
	}
	s.repin(nb, conn)
	return true
}

// migrate moves an idle session off a draining backend to a better one:
// dial and handshake first, and only on success close the old upstream,
// wait for its pump, and re-pin. The pump finds the ledger empty, so it
// answers nothing, and no backend is marked failed. Any failure leaves the
// session where it was — the draining backend keeps serving in-flight
// work, so staying put is always safe.
func (s *session) migrate() {
	if !s.idle() || !s.b.draining() {
		return
	}
	nb := s.gw.pick(s.b)
	if nb == nil {
		return
	}
	nb.mu.Lock()
	better := nb.healthy && !nb.drainingLocked()
	nb.mu.Unlock()
	if !better {
		return
	}
	conn, _, err := s.gw.dialBackend(nb, s.hello)
	if err != nil {
		return
	}
	_ = s.upstream.Close()
	<-s.pumpDone
	s.repin(nb, conn)
}

// repin moves the session onto conn, freshly dialed at nb, once the old
// upstream's pump has exited: the connection counters, both backends'
// session counts, the pin, and a new pump.
func (s *session) repin(nb *backend, conn net.Conn) {
	s.gw.nc.ConnClosed()
	s.gw.nc.ConnOpened(true)
	s.b.mu.Lock()
	s.b.active--
	s.b.mu.Unlock()
	nb.mu.Lock()
	nb.active++
	nb.sessions++
	nb.mu.Unlock()

	s.b, s.upstream = nb, conn
	s.pumpDone = make(chan struct{})
	s.pmu.Lock()
	s.down = nil
	s.pmu.Unlock()
	go s.pump(conn, s.pumpDone)
}

// pump relays upstream responses to the client, settling each in the ledger
// before the client can see it. Responses echo the request's op, so no
// request/response correlation state is needed beyond the ledger. Its one
// exit answers for the upstream (see session).
func (s *session) pump(upstream net.Conn, done chan struct{}) {
	br := bufio.NewReader(upstream) // one read(2) per frame, not one per prefix and body
	var rbuf, wbuf []byte
	var down error
	for {
		f, buf, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			// IsCodecError is false for a closed or reset connection, so
			// only a garbled stream counts as a codec error.
			if wire.IsCodecError(err) {
				s.gw.nc.CodecError()
			}
			down = err
			break
		}
		rbuf = buf
		if f.Kind == wire.KindResponse {
			s.settle(f)
		}
		s.cmu.Lock()
		wbuf, err = wire.WriteFrame(s.client, wbuf, f)
		s.cmu.Unlock()
		if err != nil {
			// The client conn, not the upstream: the request loop's next
			// read fails and ends the session.
			_ = s.client.Close()
			down = errClientGone
			break
		}
		s.gw.nc.FrameOut(f.WireSize())
	}

	s.pmu.Lock()
	for id, pr := range s.pending {
		if pr.op == wire.OpCommit {
			s.synthesize(id, pr.op, common.ErrCommitAmbiguous)
		} else {
			s.synthesize(id, pr.op, common.ErrUnreachable)
		}
	}
	clear(s.pending)
	for tx := range s.liveTx {
		s.staleTx[tx] = true
	}
	clear(s.liveTx)
	s.down = down
	s.pmu.Unlock()
	close(done)
}

// settle retires a response's request from the ledger: its pending entry
// goes, a successful OpBegin's handle goes live, and a Commit or Rollback
// retires its handle whatever its status (the server forgets the
// transaction either way). One pmu section, so the migration gate never
// sees a half-settled response.
func (s *session) settle(f wire.Frame) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	pr, tracked := s.pending[f.ID]
	delete(s.pending, f.ID)
	switch f.Op {
	case wire.OpBegin:
		rd := wire.NewReader(f.Payload)
		if wire.DecodeStatus(rd) == nil {
			if tx := rd.U64(); rd.Err() == nil {
				s.liveTx[tx] = true
				// Handles are per-upstream counters: a new backend reissues
				// numbers its dead predecessor used, and a reborn handle
				// belongs to the live transaction.
				delete(s.staleTx, tx)
			}
		}
	case wire.OpCommit, wire.OpRollback:
		if tracked {
			delete(s.liveTx, pr.tx)
		}
	}
}
