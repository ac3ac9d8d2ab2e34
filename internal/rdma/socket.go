package rdma

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// Socket transport: fabric verbs between OS processes over TCP, speaking the
// wire frame codec. The protocol is symmetric after the handshake — either
// end may issue verb requests — so a satellite's dialed uplink doubles as the
// seed's reverse route to the satellite's endpoints (TIT reads, revoke RPCs)
// without a listener on the satellite.
//
// Handshake: the dialer opens one connection and sends a hello control frame
// on it (protocol version, a process-unique peer id, its process name and
// the node ids it hosts); the acceptor verifies the version, makes the
// connection the one link of that peer id (a redial replaces the last one),
// answers with a hello-ack and attaches a route for every announced node.
// Nodes registered after dialing (a satellite learns its id from the seed)
// are announced late via an announce control frame.
//
// Requests are pipelined by wire.Link — a correlation id on every frame,
// each request served concurrently on a reused worker goroutine, waiters
// matched by id — so one connection
// sustains many in-flight verbs like a QP with a deep send queue.

// FabricProtoVersion is the peer-link protocol version. The handshake
// refuses mismatched peers so frame-format changes fail loudly at connect
// time rather than corrupting verbs mid-stream.
const FabricProtoVersion uint16 = 2

// Fabric-peer opcodes (wire.KindRequest).
const (
	fopRead uint8 = iota + 1
	fopWrite
	fopReadV
	fopWriteV
	fopCAS
	fopFAA
	fopCall
	fopCallBatch
)

// Control opcodes (wire.KindControl).
const (
	copHello uint8 = iota + 1
	copHelloAck
	copAnnounce
	copPing
)

// Keepalive: both ends of a link send copPing every keepalive interval and
// track the arrival time of the last frame of any kind. A link that has
// received nothing for keepaliveMisses intervals is declared half-open and
// failed with ErrUnreachable — TCP alone can take many minutes to notice a
// peer that vanished without a FIN (SIGKILL of the process leaves a FIN, but
// a dropped switch, a black-holed route, or injected FaultBlackhole do not).
// Atomics because tests shorten them while links from earlier tests are
// still winding down.
var (
	keepaliveIntervalNs atomic.Int64
	keepaliveMisses     atomic.Int32
)

func init() {
	keepaliveIntervalNs.Store(int64(time.Second))
	keepaliveMisses.Store(3)
}

func errPeerUnreachable(detail string) error {
	return fmt.Errorf("rdma: peer %s: %w", detail, common.ErrUnreachable)
}

// peerLink is one fabric connection: a wire.Link (framing, pipelining, the
// read loop, fail-once) plus what is the fabric's own — the verb codec in
// execute, keepalive and idle detection, the injected black hole, announce
// handling and registration with the fabric's LinkFaults.
type peerLink struct {
	*wire.Link
	f    *Fabric
	name string // remote's advertised name: error detail and fault-rule match

	// lastRecv is the unix-nano arrival time of the last admitted frame
	// (any kind); the keepalive loop fails the link when it goes stale.
	lastRecv atomic.Int64

	// rp is the acceptor-side peer this link belongs to (nil on dialed
	// links), which forgets the link once it died.
	rp *remotePeer
}

// newPeerLink wraps a connection whose handshake is done.
func newPeerLink(f *Fabric, c net.Conn, nc *wire.NetCounters, accepted bool, name string) *peerLink {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(15 * time.Second)
	}
	l := &peerLink{Link: wire.NewLink(c, nc, accepted), f: f, name: name}
	l.Serve, l.Control, l.Admit = l.execute, l.control, l.admit
	l.lastRecv.Store(time.Now().UnixNano())
	return l
}

// start registers the link with the fabric's fault registry and runs its
// read and keepalive loops. Called once per link, by the owner that holds
// it.
func (l *peerLink) start() {
	l.f.faults.register(l)
	go l.Run()
	go l.keepaliveLoop()
}

// keepaliveLoop pings the remote and enforces the idle bound until the link
// dies, then takes it out of the fault registry and its owner. The
// interval and miss budget are captured once at start.
func (l *peerLink) keepaliveLoop() {
	interval := time.Duration(keepaliveIntervalNs.Load())
	misses := int(keepaliveMisses.Load())
	t := time.NewTicker(interval)
	defer t.Stop()
	defer func() {
		l.f.faults.deregister(l)
		if l.rp != nil {
			l.rp.dropLink(l)
		}
	}()
	for {
		select {
		case <-l.Done():
			return
		case <-t.C:
		}
		if idle := time.Since(time.Unix(0, l.lastRecv.Load())); idle > time.Duration(misses)*interval {
			l.Fail(fmt.Errorf("rdma: link %s: no frames for %v (half-open)", l.name, idle.Round(time.Millisecond)))
		} else {
			_ = l.Send(wire.Frame{Kind: wire.KindControl, Op: copPing})
		}
	}
}

// admit is the link's frame filter. A black-holed link reports a send as
// done without writing — exactly what a half-open TCP connection does until
// its send buffer fills — and discards what arrives without refreshing
// lastRecv, so idle detection fires on both ends.
func (l *peerLink) admit(recv bool) bool {
	if l.f.faults.drop(l.name) {
		return false
	}
	if recv {
		l.lastRecv.Store(time.Now().UnixNano())
	}
	return true
}

// control takes the post-handshake control frames: an announce attaches
// routes for nodes the remote registered after the handshake (a satellite
// announcing its freshly allocated node id); a ping needs no answer — its
// arrival refreshed lastRecv and the remote runs its own ping loop.
func (l *peerLink) control(fr wire.Frame) {
	if fr.Op != copAnnounce || l.rp == nil {
		return
	}
	rd := wire.NewReader(fr.Payload)
	nodes := make([]common.NodeID, rd.Count(uint32(rd.U16()), 2))
	for i := range nodes {
		nodes[i] = common.NodeID(rd.U16())
	}
	if rd.Done() != nil {
		return // a malformed announce routes nothing
	}
	for _, n := range nodes {
		l.rp.addNode(n)
	}
}

// call issues one verb. A link that died under it (or before it) is the
// transient ErrUnreachable, named; a status the remote answered is returned
// as it is.
func (l *peerLink) call(op uint8, payload []byte) ([]byte, error) {
	out, responded, err := l.Call(op, payload)
	if err != nil && !responded {
		return nil, fmt.Errorf("rdma: peer %s: %w", l.name, err)
	}
	return out, err
}

func (l *peerLink) srcStats(src common.NodeID) *Stats {
	if src == common.AnyNode {
		return nil
	}
	return l.f.SrcStats(src)
}

// execute runs one incoming verb against the local fabric. Injection,
// latency and stats apply at this fabric exactly as for a locally issued
// verb, with the op attributed to the original source. A request that does
// not fit its op's layout — a field cut short, an element count the payload
// cannot hold, bytes past the last field — is refused as corrupt before
// anything is sized from it or executed.
func (l *peerLink) execute(op uint8, payload []byte) ([]byte, error) {
	rd := wire.NewReader(payload)
	src := common.NodeID(rd.U16())
	node := common.NodeID(rd.U16())
	name := rd.Str()
	ss := l.srcStats(src)
	switch op {
	case fopRead:
		off := int(rd.U64())
		n := int(rd.U32())
		if err := rd.Done(); err != nil {
			return nil, err
		}
		if n > wire.MaxFrame {
			return nil, fmt.Errorf("wire: read of %d bytes: %w", n, common.ErrOutOfBounds)
		}
		dst := make([]byte, n)
		if err := l.f.read(src, node, name, off, dst, ss); err != nil {
			return nil, err
		}
		return dst, nil
	case fopWrite:
		off := int(rd.U64())
		data := rd.Bytes()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		return nil, l.f.write(src, node, name, off, data, ss)
	case fopReadV:
		// The segment table is walked twice: sizes first, then the
		// segments, each a slice of the one response buffer.
		k := rd.Count(rd.U32(), 12)
		table, total := *rd, 0
		for i := 0; i < k; i++ {
			rd.U64()
			total += int(rd.U32())
		}
		if err := rd.Done(); err != nil {
			return nil, err
		}
		if total > wire.MaxFrame {
			return nil, fmt.Errorf("wire: readv of %d bytes: %w", total, common.ErrOutOfBounds)
		}
		out := make([]byte, total)
		segs := make([]Seg, k)
		for i, rest := 0, out; i < k; i++ {
			off, n := int(table.U64()), int(table.U32())
			segs[i], rest = Seg{Off: off, Buf: rest[:n:n]}, rest[n:]
		}
		if err := l.f.readV(src, node, name, segs, ss); err != nil {
			return nil, err
		}
		return out, nil
	case fopWriteV:
		segs := make([]Seg, rd.Count(rd.U32(), 12))
		for i := range segs {
			segs[i].Off = int(rd.U64())
			segs[i].Buf = rd.Bytes()
		}
		if err := rd.Done(); err != nil {
			return nil, err
		}
		return nil, l.f.writeV(src, node, name, segs, ss)
	case fopCAS, fopFAA:
		off := int(rd.U64())
		a := rd.U64()
		b := rd.U64()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		var prev uint64
		var err error
		if op == fopCAS {
			prev, err = l.f.cas64(src, node, name, off, a, b, ss)
		} else {
			prev, err = l.f.fetchAdd64(src, node, name, off, a, ss)
		}
		if err != nil {
			return nil, err
		}
		return wire.AppendU64(nil, prev), nil
	case fopCall:
		req := rd.Bytes()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		return l.f.call(src, node, name, req, ss)
	case fopCallBatch:
		reqs, err := decodeBatch(rd)
		if err != nil {
			return nil, err
		}
		resps, err := l.f.callBatch(src, node, name, reqs, ss)
		if err != nil {
			return nil, err
		}
		out := wire.AppendU32(nil, uint32(len(resps)))
		for _, r := range resps {
			out = wire.AppendBytes(out, r)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("wire: fabric op %d: %w", op, common.ErrNoService)
	}
}

// decodeBatch decodes a count-prefixed list of byte strings: a CallBatch's
// requests, or its responses. The strings alias the payload, each capped at
// its own length so an append to one cannot overwrite the next.
func decodeBatch(rd *wire.Reader) ([][]byte, error) {
	out := make([][]byte, rd.Count(rd.U32(), 4))
	for i := range out {
		b := rd.Bytes()
		out[i] = b[:len(b):len(b)]
	}
	return out, rd.Done()
}

// --- verb encoding (issuer side) --------------------------------------------

func verbHeader(src, node common.NodeID, name string) []byte {
	b := wire.AppendU16(nil, uint16(src))
	b = wire.AppendU16(b, uint16(node))
	return wire.AppendString(b, name)
}

// linkPicker abstracts "give me a live link" over the dialer's Peer and the
// acceptor's remotePeer, so both share one verb implementation.
type linkPicker interface {
	pick() (*peerLink, error)
}

// netTransport implements Transport over a linkPicker.
type netTransport struct{ links linkPicker }

func (t *netTransport) do(op uint8, payload []byte) ([]byte, error) {
	l, err := t.links.pick()
	if err != nil {
		return nil, err
	}
	return l.call(op, payload)
}

func (t *netTransport) Read(src, node common.NodeID, region string, off int, dst []byte) error {
	p := verbHeader(src, node, region)
	p = wire.AppendU64(p, uint64(off))
	p = wire.AppendU32(p, uint32(len(dst)))
	out, err := t.do(fopRead, p)
	if err != nil {
		return err
	}
	if len(out) != len(dst) {
		return fmt.Errorf("wire: read returned %d of %d bytes: %w", len(out), len(dst), common.ErrShortBuffer)
	}
	copy(dst, out)
	return nil
}

func (t *netTransport) Write(src, node common.NodeID, region string, off int, data []byte) error {
	p := verbHeader(src, node, region)
	p = wire.AppendU64(p, uint64(off))
	p = wire.AppendBytes(p, data)
	_, err := t.do(fopWrite, p)
	return err
}

func (t *netTransport) ReadV(src, node common.NodeID, region string, segs []Seg) error {
	p := verbHeader(src, node, region)
	p = wire.AppendU32(p, uint32(len(segs)))
	for _, s := range segs {
		p = wire.AppendU64(p, uint64(s.Off))
		p = wire.AppendU32(p, uint32(len(s.Buf)))
	}
	out, err := t.do(fopReadV, p)
	if err != nil {
		return err
	}
	if len(out) != segTotal(segs) {
		return fmt.Errorf("wire: readv returned %d of %d bytes: %w", len(out), segTotal(segs), common.ErrShortBuffer)
	}
	for _, s := range segs {
		out = out[copy(s.Buf, out):]
	}
	return nil
}

func (t *netTransport) WriteV(src, node common.NodeID, region string, segs []Seg) error {
	p := verbHeader(src, node, region)
	p = wire.AppendU32(p, uint32(len(segs)))
	for _, s := range segs {
		p = wire.AppendU64(p, uint64(s.Off))
		p = wire.AppendBytes(p, s.Buf)
	}
	_, err := t.do(fopWriteV, p)
	return err
}

func (t *netTransport) atomic64(op uint8, src, node common.NodeID, region string, off int, a, b uint64) (uint64, error) {
	p := verbHeader(src, node, region)
	p = wire.AppendU64(p, uint64(off))
	p = wire.AppendU64(p, a)
	p = wire.AppendU64(p, b)
	out, err := t.do(op, p)
	if err != nil {
		return 0, err
	}
	rd := wire.NewReader(out)
	prev := rd.U64()
	if err := rd.Done(); err != nil {
		return 0, err
	}
	return prev, nil
}

func (t *netTransport) CAS64(src, node common.NodeID, region string, off int, old, new uint64) (uint64, error) {
	return t.atomic64(fopCAS, src, node, region, off, old, new)
}

func (t *netTransport) FetchAdd64(src, node common.NodeID, region string, off int, delta uint64) (uint64, error) {
	return t.atomic64(fopFAA, src, node, region, off, delta, 0)
}

func (t *netTransport) Call(src, node common.NodeID, service string, req []byte) ([]byte, error) {
	p := verbHeader(src, node, service)
	p = wire.AppendBytes(p, req)
	return t.do(fopCall, p)
}

func (t *netTransport) CallBatch(src, node common.NodeID, service string, reqs [][]byte) ([][]byte, error) {
	p := verbHeader(src, node, service)
	p = wire.AppendU32(p, uint32(len(reqs)))
	for _, r := range reqs {
		p = wire.AppendBytes(p, r)
	}
	out, err := t.do(fopCallBatch, p)
	if err != nil {
		return nil, err
	}
	// out is the response frame's own payload, so the responses may alias it.
	return decodeBatch(wire.NewReader(out))
}
