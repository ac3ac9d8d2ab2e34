package rdma

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// dialTimeout bounds connection establishment and the handshake round trip.
const dialTimeout = 3 * time.Second

// Reconnect pacing is per link slot and exponential: the first redial after
// a failure waits redialBackoffMin, doubling per consecutive failure up to
// redialBackoffMax with ±25% jitter (see faults.go), so a dead uplink costs
// one failed dial per backoff window instead of one per verb, and a fleet
// of clients does not stampede a freshly restarted peer. A successful dial
// resets the slot.

func newPeerID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("rdma: no entropy for peer id: " + err.Error())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// PeerConfig tunes DialPeer.
type PeerConfig struct {
	// Name identifies this process in the remote's error messages and
	// stats ("mpserver-2"). Defaults to "peer".
	Name string
	// Conns is the connection-pool size (default 2): verbs are pipelined
	// on every connection and spread round-robin across the pool.
	Conns int
	// Hosted lists node ids this process already hosts; announced in the
	// handshake so the remote can route verbs back. Nodes registered later
	// are announced via Announce.
	Hosted []common.NodeID
	// Counters receives connection/frame accounting (optional).
	Counters *wire.NetCounters
}

func (c *PeerConfig) fill() {
	if c.Name == "" {
		c.Name = "peer"
	}
	if c.Conns <= 0 {
		c.Conns = 2
	}
}

// Peer is a dialed connection pool to one remote fabric process,
// implementing Transport. Dead connections redial lazily with backoff; while
// no connection is live, verbs fail with the transient ErrUnreachable so the
// engine's existing retry machinery rides out restarts.
type Peer struct {
	netTransport
	f    *Fabric
	addr string
	id   uint64
	cfg  PeerConfig

	mu       sync.Mutex
	links    []*peerLink // slot-indexed; nil or dead slots redial on demand
	notUntil []time.Time // per-slot redial gate (now+jittered backoff)
	backoff  []time.Duration
	hosted   []common.NodeID
	closed   bool

	rr atomic.Uint32
}

// DialPeer connects f to the fabric process listening at addr. At least one
// connection must hand-shake for the dial to succeed; the rest of the pool
// fills lazily.
func DialPeer(f *Fabric, addr string, cfg PeerConfig) (*Peer, error) {
	cfg.fill()
	p := &Peer{
		f:        f,
		addr:     addr,
		id:       newPeerID(),
		cfg:      cfg,
		links:    make([]*peerLink, cfg.Conns),
		notUntil: make([]time.Time, cfg.Conns),
		backoff:  make([]time.Duration, cfg.Conns),
		hosted:   append([]common.NodeID(nil), cfg.Hosted...),
	}
	p.netTransport = netTransport{links: p}
	p.mu.Lock()
	_, err := p.dialSlotLocked(0)
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Addr returns the remote address.
func (p *Peer) Addr() string { return p.addr }

func (p *Peer) detail() string { return p.addr }

// dialSlotLocked (re)connects pool slot i and runs the dialer handshake.
// Failures arm the slot's exponential backoff; success resets it.
func (p *Peer) dialSlotLocked(i int) (*peerLink, error) {
	if p.closed {
		return nil, errPeerUnreachable(p.addr + " (peer closed)")
	}
	if time.Now().Before(p.notUntil[i]) {
		return nil, errPeerUnreachable(p.addr + " (redial backoff)")
	}
	if p.f.faults.denyDial(p.addr) {
		p.armBackoffLocked(i)
		return nil, errPeerUnreachable(p.addr + " (injected partition)")
	}
	p.armBackoffLocked(i)
	c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	if err != nil {
		return nil, errPeerUnreachable(p.addr + ": " + err.Error())
	}
	name, err := p.handshake(c)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	p.backoff[i] = 0
	p.notUntil[i] = time.Time{}
	l := newPeerLink(p.f, c, p.cfg.Counters, false, name)
	p.links[i] = l
	l.start()
	return l, nil
}

// armBackoffLocked advances slot i's backoff and gates the next attempt.
func (p *Peer) armBackoffLocked(i int) {
	p.backoff[i] = nextBackoff(p.backoff[i])
	p.notUntil[i] = time.Now().Add(jittered(p.backoff[i]))
}

// handshake runs the dialer's hello exchange and returns the link's name:
// the address plus what the remote called itself.
func (p *Peer) handshake(c net.Conn) (string, error) {
	hello := wire.AppendU16(nil, FabricProtoVersion)
	hello = wire.AppendU64(hello, p.id)
	hello = wire.AppendString(hello, p.cfg.Name)
	hello = wire.AppendU16(hello, uint16(len(p.hosted)))
	for _, n := range p.hosted {
		hello = wire.AppendU16(hello, uint16(n))
	}
	_, body, err := wire.Hello(c, p.cfg.Counters, wire.Frame{Kind: wire.KindControl, Op: copHello, Payload: hello}, copHelloAck, dialTimeout)
	if err != nil {
		return "", fmt.Errorf("rdma: peer %s: %w", p.addr, err)
	}
	rd := wire.NewReader(body)
	if v := rd.U16(); v != FabricProtoVersion {
		return "", fmt.Errorf("rdma: peer %s speaks protocol v%d, want v%d", p.addr, v, FabricProtoVersion)
	}
	name := rd.Str()
	return p.addr + "/" + name, rd.Done()
}

// pick returns a live link, redialing one slot if the pool is empty.
func (p *Peer) pick() (*peerLink, error) {
	n := uint32(len(p.links))
	start := p.rr.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	for off := uint32(0); off < n; off++ {
		if l := p.links[(start+off)%n]; l != nil && l.Alive() {
			return l, nil
		}
	}
	// Nothing live: try to revive the slot round-robin chose.
	return p.dialSlotLocked(int(start % n))
}

// Announce advertises nodes now hosted by this process to the remote, so it
// can route verbs for them back over this peer. Remembered for redials.
func (p *Peer) Announce(nodes ...common.NodeID) error {
	p.mu.Lock()
	p.hosted = append(p.hosted, nodes...)
	links := append([]*peerLink(nil), p.links...)
	p.mu.Unlock()
	payload := wire.AppendU16(nil, uint16(len(nodes)))
	for _, n := range nodes {
		payload = wire.AppendU16(payload, uint16(n))
	}
	sent := false
	for _, l := range links {
		if l == nil || !l.Alive() {
			continue
		}
		if err := l.Send(wire.Frame{Kind: wire.KindControl, Op: copAnnounce, Payload: payload}); err == nil {
			sent = true
		}
	}
	if !sent {
		return errPeerUnreachable(p.addr + " (announce)")
	}
	return nil
}

// Close tears down the pool; subsequent verbs fail with ErrUnreachable.
func (p *Peer) Close() error {
	p.mu.Lock()
	p.closed = true
	links := append([]*peerLink(nil), p.links...)
	p.mu.Unlock()
	for _, l := range links {
		if l != nil {
			l.Fail(errPeerUnreachable(p.addr + " (peer closed)"))
		}
	}
	return nil
}

var _ Transport = (*Peer)(nil)

// remotePeer groups the accepted connections of one dialing process (one
// peer id) and implements Transport for reverse routing to the nodes it
// announced. It never dials: when the dialer reconnects, fresh links join
// the same group.
type remotePeer struct {
	netTransport
	srv  *FabricServer
	id   uint64
	name string

	mu    sync.Mutex
	links []*peerLink
	nodes map[common.NodeID]bool
	rr    atomic.Uint32
}

func (rp *remotePeer) detail() string { return rp.name }

func (rp *remotePeer) pick() (*peerLink, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	// A dead link leaves the group a moment after it fails (its keepalive
	// loop drops it), so skip any that are still listed.
	start := int(rp.rr.Add(1))
	for off := range rp.links {
		if l := rp.links[(start+off)%len(rp.links)]; l.Alive() {
			return l, nil
		}
	}
	return nil, errPeerUnreachable(rp.name + " (no live connections)")
}

// addNode routes verbs for node through this peer group.
func (rp *remotePeer) addNode(node common.NodeID) {
	rp.mu.Lock()
	known := rp.nodes[node]
	rp.nodes[node] = true
	rp.mu.Unlock()
	if !known {
		rp.srv.f.AttachRemote(node, rp)
	}
}

func (rp *remotePeer) addLink(l *peerLink) {
	rp.mu.Lock()
	rp.links = append(rp.links, l)
	rp.mu.Unlock()
}

func (rp *remotePeer) dropLink(l *peerLink) {
	rp.mu.Lock()
	for i, x := range rp.links {
		if x == l {
			rp.links = append(rp.links[:i], rp.links[i+1:]...)
			break
		}
	}
	rp.mu.Unlock()
}

var _ Transport = (*remotePeer)(nil)

// FabricServer accepts socket-transport peers on behalf of a fabric: it
// serves their verbs against local endpoints and installs reverse routes for
// the nodes each peer hosts.
type FabricServer struct {
	f    *Fabric
	lis  net.Listener
	name string
	nc   *wire.NetCounters

	mu     sync.Mutex
	peers  map[uint64]*remotePeer
	conns  map[*peerLink]struct{}
	closed bool
}

// ServeFabric starts accepting fabric peers on lis. name is this process's
// advertised identity.
func ServeFabric(f *Fabric, lis net.Listener, name string, nc *wire.NetCounters) *FabricServer {
	s := &FabricServer{
		f:     f,
		lis:   lis,
		name:  name,
		nc:    nc,
		peers: make(map[uint64]*remotePeer),
		conns: make(map[*peerLink]struct{}),
	}
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *FabricServer) Addr() string { return s.lis.Addr().String() }

func (s *FabricServer) acceptLoop() {
	for {
		c, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		go s.handshake(c)
	}
}

// handshake validates a dialer's hello, joins the link to its peer group and
// starts serving it.
func (s *FabricServer) handshake(c net.Conn) {
	_ = c.SetDeadline(time.Now().Add(dialTimeout))
	fr, _, err := wire.ReadFrame(c, nil)
	if err != nil || fr.Kind != wire.KindControl || fr.Op != copHello {
		_ = c.Close()
		return
	}
	rd := wire.NewReader(fr.Payload)
	version := rd.U16()
	peerID := rd.U64()
	peerName := rd.Str()
	nodes := make([]common.NodeID, rd.Count(uint32(rd.U16()), 2))
	for i := range nodes {
		nodes[i] = common.NodeID(rd.U16())
	}
	if rd.Done() != nil {
		s.nc.CodecError()
		_ = c.Close()
		return
	}
	var hsErr error
	if version != FabricProtoVersion {
		hsErr = fmt.Errorf("wire: protocol v%d not supported, want v%d: %w",
			version, FabricProtoVersion, common.ErrCorrupt)
	}
	ack := wire.AppendStatus(nil, hsErr)
	ack = wire.AppendU16(ack, FabricProtoVersion)
	ack = wire.AppendString(ack, s.name)
	af := wire.Frame{Kind: wire.KindControl, Op: copHelloAck, Payload: ack}
	if _, err := wire.WriteFrame(c, nil, af); err != nil || hsErr != nil {
		_ = c.Close()
		return
	}
	s.nc.FrameOut(af.WireSize())
	_ = c.SetDeadline(time.Time{})

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = c.Close()
		return
	}
	rp := s.peers[peerID]
	if rp == nil {
		rp = &remotePeer{srv: s, id: peerID, name: peerName, nodes: make(map[common.NodeID]bool)}
		rp.netTransport = netTransport{links: rp}
		s.peers[peerID] = rp
	}
	l := newPeerLink(s.f, c, s.nc, true, peerName)
	s.conns[l] = struct{}{}
	s.mu.Unlock()

	l.rp = rp
	l.onClose = func(dead *peerLink) {
		rp.dropLink(dead)
		s.mu.Lock()
		delete(s.conns, dead)
		s.mu.Unlock()
	}
	rp.addLink(l)
	for _, n := range nodes {
		rp.addNode(n)
	}
	l.start()
}

// Close stops accepting and tears down every peer connection. Routes the
// peers installed are detached so local lookups fail fast again.
func (s *FabricServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*peerLink, 0, len(s.conns))
	for l := range s.conns {
		conns = append(conns, l)
	}
	peers := s.peers
	s.peers = make(map[uint64]*remotePeer)
	s.mu.Unlock()
	_ = s.lis.Close()
	for _, l := range conns {
		l.Fail(errPeerUnreachable("server closed"))
	}
	for _, rp := range peers {
		rp.mu.Lock()
		nodes := make([]common.NodeID, 0, len(rp.nodes))
		for n := range rp.nodes {
			nodes = append(nodes, n)
		}
		rp.mu.Unlock()
		for _, n := range nodes {
			s.f.DetachRemote(n)
		}
	}
}
