package rdma

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// dialTimeout bounds connection establishment and the handshake round trip.
const dialTimeout = 3 * time.Second

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
	// Hosted lists node ids this process already hosts; announced in the
	// handshake so the remote can route verbs back. Nodes registered later
	// are announced via Announce.
	Hosted []common.NodeID
	// Counters receives connection/frame accounting (optional).
	Counters *wire.NetCounters
}

// Peer is a dialed link to one remote fabric process, implementing
// Transport. Every verb is pipelined on the one link; a dead link redials
// lazily with backoff (wire.Redial), and while none is live, verbs fail
// with the transient ErrUnreachable so the engine's existing retry
// machinery rides out restarts.
type Peer struct {
	netTransport
	f    *Fabric
	addr string
	id   uint64
	cfg  PeerConfig
	link *wire.Redial[*peerLink]

	mu     sync.Mutex
	hosted []common.NodeID
}

// DialPeer connects f to the fabric process listening at addr; the dial
// fails unless the link hand-shakes.
func DialPeer(f *Fabric, addr string, cfg PeerConfig) (*Peer, error) {
	if cfg.Name == "" {
		cfg.Name = "peer"
	}
	p := &Peer{
		f:      f,
		addr:   addr,
		id:     newPeerID(),
		cfg:    cfg,
		hosted: append([]common.NodeID(nil), cfg.Hosted...),
	}
	p.netTransport = netTransport{links: p}
	p.link = wire.NewRedial("peer "+addr, p.dial)
	if _, err := p.link.Get(); err != nil {
		return nil, err
	}
	return p, nil
}

// dial connects a new link and runs the dialer's hello exchange, which
// names the link: the address plus what the remote called itself. An
// injected partition refuses the dial before it reaches the network.
func (p *Peer) dial() (*peerLink, error) {
	if p.f.faults.denyDial(p.addr) {
		return nil, errPeerUnreachable(p.addr + " (injected partition)")
	}
	p.mu.Lock()
	hello := wire.AppendU16(nil, FabricProtoVersion)
	hello = wire.AppendU64(hello, p.id)
	hello = wire.AppendString(hello, p.cfg.Name)
	hello = wire.AppendU16(hello, uint16(len(p.hosted)))
	for _, n := range p.hosted {
		hello = wire.AppendU16(hello, uint16(n))
	}
	p.mu.Unlock()
	c, _, body, err := wire.Dial(p.addr, p.cfg.Counters, wire.Frame{Kind: wire.KindControl, Op: copHello, Payload: hello}, copHelloAck, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rdma: peer %s: %w", p.addr, err)
	}
	v, name, err := wire.DecodeHello(body)
	if err == nil && v != FabricProtoVersion {
		err = fmt.Errorf("rdma: peer %s speaks protocol v%d, want v%d", p.addr, v, FabricProtoVersion)
	}
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	l := newPeerLink(p.f, c, p.cfg.Counters, false, p.addr+"/"+name)
	go l.run()
	return l, nil
}

// pick returns the live link, redialing it if it died.
func (p *Peer) pick() (*peerLink, error) { return p.link.Get() }

// Announce advertises nodes now hosted by this process to the remote, so it
// can route verbs for them back over this peer. Remembered for redials; a
// dial already in flight may have missed them, so the announce goes on
// whatever link Get hands out, even a fresh one.
func (p *Peer) Announce(nodes ...common.NodeID) error {
	p.mu.Lock()
	p.hosted = append(p.hosted, nodes...)
	p.mu.Unlock()
	payload := wire.AppendU16(nil, uint16(len(nodes)))
	for _, n := range nodes {
		payload = wire.AppendU16(payload, uint16(n))
	}
	l, err := p.link.Get()
	if err != nil {
		return err
	}
	return l.Send(wire.Frame{Kind: wire.KindControl, Op: copAnnounce, Payload: payload})
}

// Close tears down the link; subsequent verbs fail with ErrUnreachable.
func (p *Peer) Close() error {
	p.link.Close(errPeerUnreachable(p.addr + " (peer closed)"))
	return nil
}

var _ Transport = (*Peer)(nil)

// remotePeer is the acceptor's view of one dialing process (one peer id),
// implementing Transport for reverse routing to the nodes it announced. It
// never dials: it keeps the dialer's newest link, and when the dialer
// reconnects, the fresh link takes the old one's place.
type remotePeer struct {
	netTransport
	srv  *FabricServer
	id   uint64
	name string

	mu   sync.Mutex
	link *peerLink // nil once the dialer's link died

	nodes int // nodes routed through this peer; guarded by srv.mu
}

func (rp *remotePeer) pick() (*peerLink, error) {
	rp.mu.Lock()
	l := rp.link
	rp.mu.Unlock()
	// A dead link is forgotten a moment after it fails (its keepalive loop
	// drops it), so check it is still live.
	if l == nil || !l.Alive() {
		return nil, errPeerUnreachable(rp.name + " (no live connection)")
	}
	return l, nil
}

// setLink makes l the dialer's link. A dialer redials only once its own
// link is dead, so the link l replaces has been abandoned: it is failed.
func (rp *remotePeer) setLink(l *peerLink) {
	rp.mu.Lock()
	old := rp.link
	rp.link = l
	rp.mu.Unlock()
	if old != nil {
		old.Fail(errPeerUnreachable(rp.name + " (replaced by a newer link)"))
	}
}

var _ Transport = (*remotePeer)(nil)

// FabricServer accepts socket-transport peers on behalf of a fabric: it
// serves their verbs against local endpoints and installs reverse routes for
// the nodes each peer hosts. A node routes to the peer that announced it
// last; a peer that routes no node and has no live link is forgotten.
type FabricServer struct {
	acc  *wire.Acceptor
	f    *Fabric
	name string
	nc   *wire.NetCounters

	mu     sync.Mutex
	peers  map[uint64]*remotePeer
	routed map[common.NodeID]*remotePeer // each announced node's route
}

// ServeFabric starts accepting fabric peers on lis. name is this process's
// advertised identity.
func ServeFabric(f *Fabric, lis net.Listener, name string, nc *wire.NetCounters) *FabricServer {
	s := &FabricServer{
		f:      f,
		name:   name,
		nc:     nc,
		peers:  make(map[uint64]*remotePeer),
		routed: make(map[common.NodeID]*remotePeer),
	}
	s.acc = wire.Accept(lis, nc, copHello, copHelloAck, s.serve)
	return s
}

// Addr returns the listener address.
func (s *FabricServer) Addr() string { return s.acc.Addr().String() }

// serve validates a dialer's hello, makes the link its peer's, routes the
// nodes it announced and runs the link until it dies.
func (s *FabricServer) serve(c net.Conn, hello wire.Frame) {
	rd := wire.NewReader(hello.Payload)
	version := rd.U16()
	peerID := rd.U64()
	peerName := rd.Str()
	nodes := make([]common.NodeID, rd.Count(uint32(rd.U16()), 2))
	for i := range nodes {
		nodes[i] = common.NodeID(rd.U16())
	}
	if rd.Done() != nil {
		s.nc.CodecError()
		return
	}
	if version != FabricProtoVersion {
		_ = s.ack(c, hello, fmt.Errorf("wire: protocol v%d not supported, want v%d: %w",
			version, FabricProtoVersion, common.ErrCorrupt))
		return
	}

	s.mu.Lock()
	rp := s.peers[peerID]
	if rp == nil {
		rp = &remotePeer{srv: s, id: peerID, name: peerName}
		rp.netTransport = netTransport{links: rp}
		s.peers[peerID] = rp
	}
	l := newPeerLink(s.f, c, s.nc, true, peerName)
	l.rp = rp
	rp.setLink(l)
	s.mu.Unlock()

	// Routed before the ack: of two dialers that announce one node, the
	// one that saw its ack last has the route.
	s.route(rp, nodes)
	if err := s.ack(c, hello, nil); err != nil {
		l.Fail(err) // its keepalive loop forgets it
	}
	l.run()
}

// ack writes the hello-ack carrying hsErr's status.
func (s *FabricServer) ack(c net.Conn, hello wire.Frame, hsErr error) error {
	return s.acc.WriteAck(c, hello, wire.AppendHello(wire.AppendStatus(nil, hsErr), FabricProtoVersion, s.name))
}

// route routes verbs for nodes through rp, their newest announcer. A peer
// rp displaces no longer routes the node, and is forgotten if that leaves
// it nothing.
func (s *FabricServer) route(rp *remotePeer, nodes []common.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range nodes {
		old := s.routed[n]
		if old == rp {
			continue
		}
		s.routed[n] = rp
		rp.nodes++
		s.f.AttachRemote(n, rp)
		if old != nil {
			old.nodes--
			s.forgetIdleLocked(old)
		}
	}
}

// dropLink forgets rp's link l once it died, unless a newer link already
// replaced it, and then rp itself if it routes no node.
func (s *FabricServer) dropLink(rp *remotePeer, l *peerLink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rp.mu.Lock()
	if rp.link == l {
		rp.link = nil
	}
	rp.mu.Unlock()
	s.forgetIdleLocked(rp)
}

// forgetIdleLocked deletes rp from s.peers once it routes no node and has
// no live link: nothing can reach it, and a redial of its dialer makes a
// fresh one. A peer that still routes a node keeps it, so verbs for the
// node fail as unreachable until its dialer redials. s.mu is held.
func (s *FabricServer) forgetIdleLocked(rp *remotePeer) {
	if _, err := rp.pick(); rp.nodes == 0 && err != nil && s.peers[rp.id] == rp {
		delete(s.peers, rp.id)
	}
}

// Close stops accepting, closes every peer's link and waits for each to
// die. Routes the peers installed are detached so local lookups fail fast
// again.
func (s *FabricServer) Close() {
	s.acc.Close()
	s.mu.Lock()
	routed := s.routed
	s.peers = make(map[uint64]*remotePeer)
	s.routed = make(map[common.NodeID]*remotePeer)
	s.mu.Unlock()
	for n := range routed {
		s.f.DetachRemote(n)
	}
}
