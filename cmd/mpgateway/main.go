// Command mpgateway load-balances wire session-protocol clients across the
// primaries of a multi-process PolarDB-MP cluster. Each accepted session is
// pinned to one backend mpserver — transactions live on a single connection,
// so the gateway needs almost no transaction state — picked by health, load,
// and topology: backends that fail their ping probe are skipped, backends
// whose node is draining are deprioritized (and drained ones excluded), and
// ties break to the fewest live sessions.
//
//	$ mpgateway -listen :7090 -backends host1:7070,host2:7080 -http :7091
//
// Frames are relayed (and validated) individually in both directions, so the
// gateway's /stats endpoint reports real frame/byte/pipeline counters. The
// relay tracks just enough protocol state — open transactions and in-flight
// requests per session — to migrate a pinned session to another backend at a
// transaction boundary when its backend starts draining: the next OpBegin
// that arrives with nothing open and nothing in flight is preceded by a
// silent re-handshake against a healthy backend, so long-lived client
// connections follow the topology instead of dying with their primary.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"polardbmp"
	"polardbmp/internal/common"
	"polardbmp/internal/core"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7090", "session-protocol listener for clients")
	backends := flag.String("backends", "", "comma-separated mpserver session addresses (required)")
	httpAddr := flag.String("http", "", "HTTP listener serving GET /stats (gateway + backend health JSON)")
	probe := flag.Duration("probe", time.Second, "backend health-probe interval")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Printf("mpgateway %s\n", polardbmp.Version)
		return
	}
	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "mpgateway: -backends is required")
		os.Exit(2)
	}
	if err := run(*listen, addrs, *httpAddr, *probe); err != nil {
		fmt.Fprintln(os.Stderr, "mpgateway:", err)
		os.Exit(1)
	}
}

func run(listen string, addrs []string, httpAddr string, probe time.Duration) error {
	gw := &gateway{nc: &wire.NetCounters{}, stop: make(chan struct{})}
	for _, a := range addrs {
		gw.backends = append(gw.backends, &backend{addr: a})
	}
	for _, b := range gw.backends {
		gw.wg.Add(1)
		go gw.probeLoop(b, probe)
	}

	lis, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	go gw.acceptLoop(lis)
	fmt.Printf("mpgateway %s: %d backends, serving sessions on %s\n",
		polardbmp.Version, len(gw.backends), lis.Addr())

	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(gw.stats())
		})
		// GET /goroutines: the chaos harness's leak gate polls this while
		// killing backends under the gateway.
		mux.HandleFunc("/goroutines", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "%d\n", runtime.NumGoroutine())
		})
		mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "mpgateway %s\n", polardbmp.Version)
		})
		hlis, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: mux}
		go func() { _ = hs.Serve(hlis) }()
		defer hs.Close()
		fmt.Printf("mpgateway %s: stats endpoint on http://%s/stats\n", polardbmp.Version, hlis.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("mpgateway: %v, shutting down\n", s)
	close(gw.stop)
	_ = lis.Close()
	gw.wg.Wait()
	return nil
}

// Failure-EWMA tuning: every observed failure (probe or session dial) mixes
// in at failEWMAGain; every successful probe decays the average — including
// on a backend carrying zero sessions, so a recovered backend earns its way
// back from probes alone instead of staying shunned forever. At one probe
// per second a fully-failed backend (EWMA 1.0) drops under the shun
// threshold in ~4 clean probes.
const (
	failEWMADecay = 0.7
	failEWMAGain  = 0.3
	failEWMAShun  = 0.5
)

// backend is one mpserver the gateway can route sessions to.
type backend struct {
	addr string

	mu       sync.Mutex
	healthy  bool
	failEWMA float64 // recent failure rate, decayed by idle probes
	active   int     // live proxied sessions
	sessions uint64
	lastErr  string
	// node is the backend's node id (from OpJoinInfo; 0 until learned) and
	// state its topology state (empty against a backend without the admin
	// ops).
	node  int
	state core.NodeState
}

// routable reports whether new sessions may be pinned to the backend: a
// drained node is gone for good and never receives another session.
// Caller holds b.mu.
func (b *backend) routableLocked() bool { return b.state != core.NodeDrained }

// drainingLocked reports a backend whose node is leaving: existing sessions
// should migrate off it and new ones prefer anywhere else.
// Caller holds b.mu.
func (b *backend) drainingLocked() bool {
	return b.state == core.NodeDraining || b.state == core.NodeDrained
}

// fail records one observed failure (probe or session dial).
// Caller holds b.mu.
func (b *backend) failLocked(err error) {
	b.healthy = false
	b.lastErr = err.Error()
	b.failEWMA = b.failEWMA*failEWMADecay + failEWMAGain
}

type gateway struct {
	backends []*backend
	nc       *wire.NetCounters
	stop     chan struct{}
	wg       sync.WaitGroup
}

// probeLoop keeps one backend's health fresh: a ping each tick, and every
// few ticks its topology state (which node it fronts, whether it drains).
func (gw *gateway) probeLoop(b *backend, interval time.Duration) {
	defer gw.wg.Done()
	var cl *wire.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	tick := 0
	for {
		var err error
		if cl == nil {
			cl, err = wire.DialSession(b.addr, wire.SessionConfig{Name: "mpgateway-probe", DialTimeout: interval})
		}
		if err == nil {
			err = cl.Ping()
		}
		var state core.NodeState
		if err == nil && tick%5 == 0 {
			// Topology probe (admin ops): which node does this backend
			// front, and is it draining? A backend without them answers
			// ErrNoService and simply never gets a topology state.
			b.mu.Lock()
			node := b.node
			b.mu.Unlock()
			if node == 0 {
				if raw, jerr := cl.JoinInfoJSON(); jerr == nil {
					var ji netsrv.JoinInfo
					if json.Unmarshal(raw, &ji) == nil {
						node = ji.Node
					}
				}
			}
			if node != 0 {
				if raw, terr := cl.TopologyJSON(); terr == nil {
					var top core.Topology
					if json.Unmarshal(raw, &top) == nil {
						state = core.NodeDrained // a node absent from the topology is gone
						for _, n := range top.Nodes {
							if n.ID == node {
								state = n.State
							}
						}
					}
				}
			}
			b.mu.Lock()
			b.node = node
			if state != "" {
				b.state = state
			}
			b.mu.Unlock()
		}
		b.mu.Lock()
		if err != nil {
			b.failLocked(err)
		} else {
			b.healthy = true
			b.lastErr = ""
			// Idle-probe decay: a clean probe pays down the failure average
			// even when the backend carries no sessions.
			b.failEWMA *= failEWMADecay
		}
		b.mu.Unlock()
		if err != nil && cl != nil {
			cl.Close()
			cl = nil
		}
		tick++
		select {
		case <-gw.stop:
			return
		case <-time.After(interval):
		}
	}
}

// pick returns the best backend other than exclude: healthy first, then
// healthy-but-flaky (recent failures), then draining, unhealthy last, fewest
// live sessions within a tier. Drained backends are excluded outright — that
// node left the topology for good and never receives another session.
func (gw *gateway) pick(exclude *backend) *backend {
	var best *backend
	bestScore := 1 << 30
	for _, b := range gw.backends {
		if b == exclude {
			continue
		}
		b.mu.Lock()
		routable := b.routableLocked()
		score := b.active
		switch {
		case !b.healthy:
			score += 1 << 20
		case b.drainingLocked():
			score += 1 << 19
		case b.failEWMA >= failEWMAShun:
			score += 1 << 15
		}
		b.mu.Unlock()
		if !routable {
			continue
		}
		if score < bestScore {
			best, bestScore = b, score
		}
	}
	return best
}

func (gw *gateway) acceptLoop(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		gw.wg.Add(1)
		go gw.serve(conn)
	}
}

// session is one proxied client connection, pinned to a backend but
// migratable: the request loop owns the client->upstream direction and the
// migration decision, the pump goroutine owns upstream->client. The two
// counters gate migration — a session only moves when nothing is open and
// nothing is awaited, so the swap never strands a response.
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
	gw     *gateway
	client net.Conn
	hello  []byte // client hello payload, replayed at the new backend on migration

	// umu guards the pinned-upstream state (b, upstream, pumpDone, gen,
	// alive) across migration and failover; gen stamps each pinning so
	// concurrent death reports for the same upstream collapse into one
	// failover.
	umu      sync.Mutex
	b        *backend
	upstream net.Conn
	pumpDone chan struct{}
	gen      int
	dead     bool

	// cmu serializes writes to the client between the pump and the
	// stale-transaction synthesizer in the request loop.
	cmu sync.Mutex

	// pmu guards the in-flight request table and the transaction-handle
	// sets. pending remembers enough of each forwarded request to synthesize
	// its response if the upstream dies first; liveTx holds handles opened on
	// the current upstream, staleTx those stranded on dead ones.
	pmu     sync.Mutex
	pending map[uint64]pendingReq
	liveTx  map[uint64]bool
	staleTx map[uint64]bool

	openTx    atomic.Int64 // successful Begins minus Commit/Rollback responses
	inflight  atomic.Int64 // requests forwarded minus responses delivered
	migrating atomic.Bool  // pump: upstream close is a cutover, not a failure
}

// pendingReq is what failover needs to answer one in-flight request: the op
// (an OpCommit becomes ErrCommitAmbiguous, anything else ErrUnreachable) and
// the transaction handle it referenced, if any.
type pendingReq struct {
	op uint8
	tx uint64
}

// txHandleOps: requests whose payload leads with a transaction handle.
func txHandleOp(op uint8) bool { return op >= wire.OpGet && op <= wire.OpRollback }

// decClamped decrements a gate counter, refusing to go negative (a stray
// response would otherwise wedge the counter below zero and block migration
// forever; clamping just delays it until the counters realign).
func decClamped(a *atomic.Int64) {
	for {
		v := a.Load()
		if v <= 0 {
			return
		}
		if a.CompareAndSwap(v, v-1) {
			return
		}
	}
}

// backendTimeout bounds a backend dial and, separately, its hello exchange.
const backendTimeout = 3 * time.Second

// dialBackend dials b and runs the session handshake with the given client
// hello payload, returning the open conn and the backend's hello-ack payload
// (the backend's verdict; a refused handshake is returned as an error). Dial
// and handshake are each bounded, so a backend that accepts and then says
// nothing costs a timeout, not the session.
func (gw *gateway) dialBackend(b *backend, hello []byte) (net.Conn, []byte, error) {
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
func (gw *gateway) serve(client net.Conn) {
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

// requestLoop reads client frames and forwards them upstream, counting the
// in-flight window and, when the pinned backend starts draining, migrating
// the session at the next transaction boundary: an OpBegin arriving with no
// transaction open and no response outstanding is preceded by a silent
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
			if f.Op == wire.OpBegin && s.openTx.Load() == 0 && s.inflight.Load() == 0 {
				s.b.mu.Lock()
				leaving := s.b.drainingLocked()
				s.b.mu.Unlock()
				if leaving {
					s.migrate()
				}
			}
			s.pmu.Lock()
			s.pending[f.ID] = pendingReq{op: f.Op, tx: tx}
			s.pmu.Unlock()
			s.inflight.Add(1)
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
// backend with a replayed hello. Idempotent per generation: late death
// reports for an already-replaced upstream are no-ops. Returns false when
// the session is over (no backend left; the client connection is closed).
func (s *session) failover(gen int) bool {
	s.umu.Lock()
	defer s.umu.Unlock()
	if s.dead {
		return false
	}
	if s.gen != gen {
		return true // a concurrent report already replaced this upstream
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
	s.inflight.Store(0)
	s.openTx.Store(0)

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

// migrate moves the session to a better backend: dial and handshake first,
// and only on success stop the old pump, swap the upstream, and restart. Any
// failure leaves the session where it was — the draining backend keeps
// serving in-flight work, so staying put is always safe.
func (s *session) migrate() {
	s.umu.Lock()
	defer s.umu.Unlock()
	if s.dead {
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
	// Cut over. inflight == 0 means the old upstream owes nothing; closing it
	// stops the pump, whose exit confirms nobody is writing to the client.
	s.migrating.Store(true)
	_ = s.upstream.Close()
	<-s.pumpDone
	s.migrating.Store(false)
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

// pump relays upstream responses to the client, maintaining the migration
// gate: a delivered response closes one inflight slot, a successful OpBegin
// opens a transaction, and a Commit/Rollback response closes one whatever its
// status (the server forgets the transaction either way). Responses echo the
// request's op, so no request/response correlation state is needed.
func (s *session) pump(upstream net.Conn, done chan struct{}, gen int) {
	defer close(done)
	br := bufio.NewReader(upstream) // one read(2) per frame, not one per prefix and body
	var rbuf, wbuf []byte
	for {
		f, buf, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			if s.migrating.Load() {
				return // cutover: requestLoop owns the client now
			}
			if wire.IsCodecError(err) {
				s.gw.nc.CodecError()
			}
			// The backend died for real. Hand the death to failover from a
			// fresh goroutine (it waits for this one's exit) — it answers the
			// in-flight window and re-pins the session instead of killing it.
			go s.failover(gen)
			return
		}
		rbuf = buf
		if f.Kind == wire.KindResponse {
			s.pmu.Lock()
			pr, tracked := s.pending[f.ID]
			delete(s.pending, f.ID)
			s.pmu.Unlock()
			switch f.Op {
			case wire.OpBegin:
				rd := wire.NewReader(f.Payload)
				if wire.DecodeStatus(rd) == nil {
					s.openTx.Add(1)
					if tx := rd.U64(); rd.Err() == nil {
						s.pmu.Lock()
						s.liveTx[tx] = true
						// Handles are per-upstream counters: a new backend
						// reissues numbers its dead predecessor used, and a
						// reborn handle belongs to the live transaction.
						delete(s.staleTx, tx)
						s.pmu.Unlock()
					}
				}
			case wire.OpCommit, wire.OpRollback:
				decClamped(&s.openTx)
				if tracked && pr.tx != 0 {
					s.pmu.Lock()
					delete(s.liveTx, pr.tx)
					s.pmu.Unlock()
				}
			}
		}
		s.cmu.Lock()
		wbuf, err = wire.WriteFrame(s.client, wbuf, f)
		s.cmu.Unlock()
		if err != nil {
			_ = upstream.Close()
			return
		}
		s.gw.nc.FrameOut(f.WireSize())
		if f.Kind == wire.KindResponse {
			decClamped(&s.inflight)
		}
	}
}

// stats is the /stats document: the gateway's own net counters plus each
// backend's health as the prober sees it.
func (gw *gateway) stats() any {
	type backendStats struct {
		Addr     string         `json:"addr"`
		Healthy  bool           `json:"healthy"`
		Node     int            `json:"node,omitempty"`
		State    core.NodeState `json:"state,omitempty"`
		FailEWMA float64        `json:"fail_ewma,omitempty"`
		Active   int            `json:"active_sessions"`
		Sessions uint64         `json:"total_sessions"`
		LastErr  string         `json:"last_err,omitempty"`
	}
	doc := struct {
		Version  string         `json:"version"`
		Backends []backendStats `json:"backends"`
		Net      core.NetStats  `json:"net"`
	}{Version: polardbmp.Version, Net: gw.nc.Snapshot()}
	for _, b := range gw.backends {
		b.mu.Lock()
		doc.Backends = append(doc.Backends, backendStats{
			Addr: b.addr, Healthy: b.healthy, Node: b.node, State: b.state,
			FailEWMA: b.failEWMA, Active: b.active, Sessions: b.sessions, LastErr: b.lastErr,
		})
		b.mu.Unlock()
	}
	return doc
}
