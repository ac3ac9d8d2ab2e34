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
const FabricProtoVersion uint16 = 4

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

// run registers the link with the fabric's fault registry, starts its read
// loop and runs its keepalive loop until the link dies. Called once per
// link, by the owner that holds it.
func (l *peerLink) run() {
	l.f.faults.register(l)
	go l.Run()
	l.keepaliveLoop()
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
			l.rp.srv.dropLink(l.rp, l)
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
	l.rp.srv.route(l.rp, nodes)
}

// call issues one verb. A link that died under it (or before it) is the
// transient ErrUnreachable, named; a status the remote answered is returned
// as it is.
func (l *peerLink) call(op Op, payload []byte) ([]byte, error) {
	out, responded, err := l.Call(uint8(op), payload)
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
// verb, with the op attributed to the original source.
func (l *peerLink) execute(op uint8, payload []byte) ([]byte, error) {
	v, read, err := decodeVerb(Op(op), payload)
	if err != nil {
		return nil, err
	}
	res, err := l.f.issue(&v, l.srcStats(v.Src))
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case OpRead, OpReadV:
		return read, nil
	case OpCAS, OpFAA:
		return wire.AppendU64(nil, res.Prev), nil
	case OpCall:
		return res.Resp, nil
	case OpCallBatch:
		return appendBatch(nil, v.Resps), nil
	}
	return nil, nil
}

// decodeVerb decodes a request into the verb it asks for, with the slots a
// batch answers in and, for a read, the one buffer it lands in. A request
// that does not fit its op's layout — a field cut short, an element count
// the payload cannot hold, bytes past the last field — is refused as
// corrupt before anything is sized from it.
func decodeVerb(op Op, payload []byte) (v Verb, read []byte, err error) {
	rd := wire.NewReader(payload)
	v.Op = op
	v.Src = common.NodeID(rd.U16())
	v.Node = common.NodeID(rd.U16())
	v.Name = rd.Str()
	switch op {
	case OpRead:
		v.Off = int(rd.U64())
		n := int(rd.U32())
		if err := rd.Done(); err != nil {
			return v, nil, err
		}
		if n > wire.MaxFrame {
			return v, nil, fmt.Errorf("wire: read of %d bytes: %w", n, common.ErrOutOfBounds)
		}
		v.Buf = make([]byte, n)
		return v, v.Buf, nil
	case OpWrite:
		v.Off = int(rd.U64())
		v.Buf = rd.Bytes()
	case OpReadV:
		// The segment table is walked twice: sizes first, then the
		// segments, each a slice of the one response buffer.
		k := rd.Count(rd.U32(), 12)
		table, total := *rd, 0
		for i := 0; i < k; i++ {
			rd.U64()
			total += int(rd.U32())
		}
		if err := rd.Done(); err != nil {
			return v, nil, err
		}
		if total > wire.MaxFrame {
			return v, nil, fmt.Errorf("wire: readv of %d bytes: %w", total, common.ErrOutOfBounds)
		}
		read, v.Segs = make([]byte, total), make([]Seg, k)
		for i, rest := 0, read; i < k; i++ {
			off, n := int(table.U64()), int(table.U32())
			v.Segs[i], rest = Seg{Off: off, Buf: rest[:n:n]}, rest[n:]
		}
		return v, read, nil
	case OpWriteV:
		v.Segs = make([]Seg, rd.Count(rd.U32(), 12))
		for i := range v.Segs {
			v.Segs[i].Off = int(rd.U64())
			v.Segs[i].Buf = rd.Bytes()
		}
	case OpCAS, OpFAA:
		v.Off = int(rd.U64())
		v.A = rd.U64()
		v.B = rd.U64()
	case OpCall:
		v.Buf = rd.Bytes()
	case OpCallBatch:
		v.Reqs = readBatch(rd, make([][]byte, rd.Count(rd.U32(), 4)))
		v.Resps = make([][]byte, len(v.Reqs))
	default:
		return v, nil, fmt.Errorf("wire: fabric op %d: %w", op, common.ErrNoService)
	}
	return v, nil, rd.Done()
}

// appendBatch appends a count-prefixed list of byte strings: a CallBatch's
// requests, or its responses.
func appendBatch(p []byte, bs [][]byte) []byte {
	p = wire.AppendU32(p, uint32(len(bs)))
	for _, b := range bs {
		p = wire.AppendBytes(p, b)
	}
	return p
}

// readBatch reads len(into) byte strings of a batch into into. The strings
// alias the payload, each capped at its own length so an append to one
// cannot overwrite the next.
func readBatch(rd *wire.Reader, into [][]byte) [][]byte {
	for i := range into {
		b := rd.Bytes()
		into[i] = b[:len(b):len(b)]
	}
	return into
}

// --- verb encoding (issuer side) --------------------------------------------

func verbHeader(src, node common.NodeID, name string) []byte {
	b := wire.AppendU16(nil, uint16(src))
	b = wire.AppendU16(b, uint16(node))
	return wire.AppendString(b, name)
}

// encodeVerb is the request decodeVerb reads: the header, then the op's
// operands — a read's length in place of its buffer.
func encodeVerb(v *Verb) []byte {
	p := verbHeader(v.Src, v.Node, v.Name)
	switch v.Op {
	case OpRead:
		p = wire.AppendU64(p, uint64(v.Off))
		p = wire.AppendU32(p, uint32(len(v.Buf)))
	case OpWrite:
		p = wire.AppendU64(p, uint64(v.Off))
		p = wire.AppendBytes(p, v.Buf)
	case OpReadV, OpWriteV:
		p = wire.AppendU32(p, uint32(len(v.Segs)))
		for _, s := range v.Segs {
			p = wire.AppendU64(p, uint64(s.Off))
			if v.Op == OpReadV {
				p = wire.AppendU32(p, uint32(len(s.Buf)))
			} else {
				p = wire.AppendBytes(p, s.Buf)
			}
		}
	case OpCAS, OpFAA:
		p = wire.AppendU64(p, uint64(v.Off))
		p = wire.AppendU64(p, v.A)
		p = wire.AppendU64(p, v.B)
	case OpCall:
		p = wire.AppendBytes(p, v.Buf)
	case OpCallBatch:
		p = appendBatch(p, v.Reqs)
	}
	return p
}

// decodeResult takes a verb's response: a read's bytes into its buffers,
// an atomic's previous word, a call's response, a batch's into v.Resps.
// out is the response frame's own payload, so responses may alias it.
func decodeResult(v *Verb, out []byte) (Result, error) {
	switch v.Op {
	case OpRead, OpReadV:
		if want := len(v.Buf) + segTotal(v.Segs); len(out) != want {
			return Result{}, fmt.Errorf("wire: read returned %d of %d bytes: %w", len(out), want, common.ErrShortBuffer)
		}
		out = out[copy(v.Buf, out):]
		for _, s := range v.Segs {
			out = out[copy(s.Buf, out):]
		}
		return Result{}, nil
	case OpCAS, OpFAA:
		rd := wire.NewReader(out)
		prev := rd.U64()
		return Result{Prev: prev}, rd.Done()
	case OpCall:
		return Result{Resp: out}, nil
	case OpCallBatch:
		rd := wire.NewReader(out)
		if n := int(rd.U32()); n != len(v.Resps) {
			return Result{}, fmt.Errorf("wire: %d responses to a batch of %d: %w", n, len(v.Resps), common.ErrCorrupt)
		}
		readBatch(rd, v.Resps)
		return Result{}, rd.Done()
	}
	return Result{}, nil
}

// linkPicker abstracts "give me a live link" over the dialer's Peer and the
// acceptor's remotePeer, so both share one verb implementation.
type linkPicker interface {
	pick() (*peerLink, error)
}

// netTransport implements Transport over a linkPicker.
type netTransport struct{ links linkPicker }

// Exec sends v as one request on a live link and takes its response.
func (t *netTransport) Exec(v Verb) (Result, error) {
	l, err := t.links.pick()
	if err != nil {
		return Result{}, err
	}
	out, err := l.call(v.Op, encodeVerb(&v))
	if err != nil {
		return Result{}, err
	}
	return decodeResult(&v, out)
}
