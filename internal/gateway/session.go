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
// migratable: the request loop owns the client->upstream direction and the
// migration decision, the pump goroutine owns upstream->client. A session
// only moves when its ledger holds no request in flight and no open
// transaction handle, so the swap never strands a response.
//
// When the pinned backend dies mid-session (SIGKILL, partition), the session
// does not die with it: failover() answers every in-flight request with a
// typed status — ErrCommitAmbiguous for an OpCommit whose outcome the dead
// backend took with it (the client resolves it via OpTxStatus/ResolveTx
// against a survivor), ErrUnreachable for everything else — then re-pins the
// session to a healthy backend. Transaction handles opened on the dead
// backend are remembered as stale so later requests against them fail typed
// at the gateway instead of confusing the new backend.
type session struct {
	gw     *Gateway
	client net.Conn
	hello  []byte // client hello payload, replayed at the new backend on migration

	// umu guards the pinned-upstream state (b, upstream, pumpDone, gen,
	// dead) across migration and failover; gen stamps each pinning, so a
	// death report for an upstream that was already replaced — by a
	// failover or by a migration's cutover — is recognised and dropped.
	umu      sync.Mutex
	b        *backend
	upstream net.Conn
	pumpDone chan struct{}
	gen      int
	dead     bool

	// cmu serializes writes to the client between the pump and the
	// stale-transaction synthesizer in the request loop.
	cmu sync.Mutex

	// pmu guards the session ledger. pending remembers enough of each
	// forwarded request to synthesize its response if the upstream dies
	// first; liveTx holds handles opened on the current upstream, staleTx
	// those stranded on dead ones.
	pmu     sync.Mutex
	pending map[uint64]pendingReq
	liveTx  map[uint64]bool
	staleTx map[uint64]bool
}

// pendingReq is what failover needs to answer one in-flight request: the op
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
	conn, err := net.DialTimeout("tcp", b.addr, backendTimeout)
	if err != nil {
		b.mu.Lock()
		b.failLocked(err)
		b.mu.Unlock()
		return nil, nil, err
	}
	hf := wire.Frame{Kind: wire.KindControl, Op: wire.SessHello, Payload: hello}
	ack, _, err := wire.Hello(conn, nil, hf, wire.SessHelloAck, backendTimeout)
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	return conn, ack, nil
}

// serve pins one client session to one backend and proxies frames both ways
// until either side hangs up. The gateway terminates the handshake read so it
// can replay the client's hello on migration, but relays the backend's ack
// verbatim — the client still sees the backend's name and the negotiated
// protocol version end to end.
func (gw *Gateway) serve(client net.Conn) {
	defer gw.wg.Done()
	defer client.Close()

	hf, _, err := wire.ReadFrame(client, nil)
	if err != nil || hf.Kind != wire.KindControl || hf.Op != wire.SessHello {
		return
	}
	gw.nc.FrameIn(hf.WireSize())
	hello := append([]byte(nil), hf.Payload...)

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
	af := wire.Frame{Kind: wire.KindControl, Op: wire.SessHelloAck, Payload: ack}
	if _, err := wire.WriteFrame(client, nil, af); err != nil {
		_ = upstream.Close()
		return
	}
	gw.nc.FrameOut(af.WireSize())

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
	go s.pump(upstream, s.pumpDone, 0)
	s.requestLoop()

	s.umu.Lock()
	s.dead = true // end of session: a late death report must not re-pin
	up, done, last := s.upstream, s.pumpDone, s.b
	s.umu.Unlock()
	_ = up.Close()
	<-done
	last.mu.Lock()
	last.active--
	last.mu.Unlock()
}

// requestLoop reads client frames and forwards them upstream, entering each
// request in the ledger and, when the pinned backend starts draining,
// moving the session at the next transaction boundary: an OpBegin
// arriving with nothing pending and no live handle is preceded by a silent
// re-handshake against a healthier backend.
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
		if f.Kind == wire.KindRequest {
			var tx uint64
			if txHandleOp(f.Op) {
				tx = wire.NewReader(f.Payload).U64()
				s.pmu.Lock()
				stale := s.staleTx[tx]
				s.pmu.Unlock()
				if stale {
					// The handle belongs to a backend that died: answer here
					// instead of confusing the new backend with a foreign id.
					// The dead backend rolled the transaction back when the
					// gateway's connection to it dropped, so a rollback is
					// trivially satisfied and anything else failed transient —
					// a commit for a stale handle was never sent anywhere, so
					// it is a plain failure, not an ambiguous one.
					if f.Op == wire.OpRollback {
						s.synthesize(f.ID, f.Op, nil)
					} else {
						s.synthesize(f.ID, f.Op, common.ErrUnreachable)
					}
					continue
				}
			}
			if f.Op == wire.OpBegin && s.idle() {
				s.migrate()
			}
			s.pmu.Lock()
			s.pending[f.ID] = pendingReq{op: f.Op, tx: tx}
			s.pmu.Unlock()
		}
		for {
			up, gen := s.up()
			if up == nil {
				return
			}
			wbuf, err = wire.WriteFrame(up, wbuf, f)
			if err == nil {
				break
			}
			if !s.failover(gen) {
				return
			}
			if f.Kind == wire.KindRequest {
				// failover answered every pending request — including this
				// one — so there is nothing left to forward.
				break
			}
		}
	}
}

// idle reports a transaction boundary: no request in flight and no
// transaction handle open on the current upstream.
func (s *session) idle() bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return len(s.pending) == 0 && len(s.liveTx) == 0
}

// up snapshots the pinned upstream and its generation (nil once the session
// is dead).
func (s *session) up() (net.Conn, int) {
	s.umu.Lock()
	defer s.umu.Unlock()
	if s.dead {
		return nil, s.gen
	}
	return s.upstream, s.gen
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

// failover handles the death of the upstream pinned at generation gen:
// answer everything in flight with a typed status (an OpCommit's outcome
// died with the backend — ErrCommitAmbiguous tells the client to resolve it
// via OpTxStatus on a survivor; anything else failed transient), mark the
// open transaction handles stale, and re-pin the session to a healthy
// backend with a replayed hello. Idempotent per generation: a late death
// report for an upstream already replaced, by a failover or a migration, is
// a no-op. Returns false when the session is over (no backend left; the
// client connection is closed).
func (s *session) failover(gen int) bool {
	s.umu.Lock()
	defer s.umu.Unlock()
	if s.dead {
		return false
	}
	if s.gen != gen {
		return true // this upstream was already replaced
	}
	_ = s.upstream.Close()
	<-s.pumpDone // pump exited: client writes are ours until a new pump runs

	s.pmu.Lock()
	pend := s.pending
	s.pending = make(map[uint64]pendingReq)
	for tx := range s.liveTx {
		s.staleTx[tx] = true
	}
	s.liveTx = make(map[uint64]bool)
	s.pmu.Unlock()
	for id, pr := range pend {
		if pr.op == wire.OpCommit {
			s.synthesize(id, pr.op, common.ErrCommitAmbiguous)
		} else {
			s.synthesize(id, pr.op, common.ErrUnreachable)
		}
	}

	old := s.b
	old.mu.Lock()
	old.failLocked(errors.New("session upstream died"))
	old.mu.Unlock()

	nb := s.gw.pick(old)
	var conn net.Conn
	var err error
	if nb != nil {
		conn, _, err = s.gw.dialBackend(nb, s.hello)
	}
	if nb == nil || err != nil {
		// Nowhere to go: end the session; the client's next connect lands on
		// whatever the gateway has then.
		s.dead = true
		_ = s.client.Close()
		return false
	}
	s.repinLocked(nb, conn)
	return true
}

// migrate moves the session off a draining backend to a better one: dial
// and handshake first, and only on success stop the old pump, swap the
// upstream, and restart. Any failure leaves the session where it was — the
// draining backend keeps serving in-flight work, so staying put is always
// safe. The caller has checked that the session is idle.
func (s *session) migrate() {
	s.umu.Lock()
	defer s.umu.Unlock()
	if s.dead || !s.b.draining() {
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
	// Cut over. The old upstream owes no response; closing it stops the
	// pump, whose exit confirms nobody is writing to the client. Its death
	// report names the old generation, which repinLocked retires.
	_ = s.upstream.Close()
	<-s.pumpDone
	s.repinLocked(nb, conn)
}

// repinLocked moves the session onto conn, freshly dialed at nb, once the
// old upstream's pump has exited: the connection counters, both backends'
// session counts, the upstream swap, and a new pump under the next
// generation. Caller holds s.umu.
func (s *session) repinLocked(nb *backend, conn net.Conn) {
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
	s.gen++
	s.pumpDone = make(chan struct{})
	go s.pump(conn, s.pumpDone, s.gen)
}

// pump relays upstream responses to the client, settling each in the ledger
// before the client can see it. Responses echo the request's op, so no
// request/response correlation state is needed beyond the ledger.
func (s *session) pump(upstream net.Conn, done chan struct{}, gen int) {
	defer close(done)
	br := bufio.NewReader(upstream) // one read(2) per frame, not one per prefix and body
	var rbuf, wbuf []byte
	for {
		f, buf, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			// The backend died, or a migration closed this upstream to cut
			// over; IsCodecError is false for a cutover's closed-connection
			// error, so only a garbled stream counts as a codec error.
			// Either way hand the death to failover from a fresh goroutine
			// (it waits for this one's exit): after a cutover s.gen has moved
			// on and it returns at once, answering nothing and marking no
			// backend failed; after a real death it answers the in-flight
			// window and re-pins the session instead of killing it.
			if wire.IsCodecError(err) {
				s.gw.nc.CodecError()
			}
			go s.failover(gen)
			return
		}
		rbuf = buf
		if f.Kind == wire.KindResponse {
			s.settle(f)
		}
		s.cmu.Lock()
		wbuf, err = wire.WriteFrame(s.client, wbuf, f)
		s.cmu.Unlock()
		if err != nil {
			_ = upstream.Close()
			return
		}
		s.gw.nc.FrameOut(f.WireSize())
	}
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
