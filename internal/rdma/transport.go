package rdma

import (
	"fmt"
	"sync/atomic"

	"polardbmp/internal/common"
)

// Transport executes fabric verbs against the endpoints it reaches, and
// only executes them. Faults and counts are the issuing Fabric's (issue):
// it consults the injector before the transport runs, runs a duplicated
// one-sided READ/WRITE twice, charges each successful execution once and
// loses an RPC reply the injector dropped — so every transport faults and
// counts alike. Exec takes the verb by value, so it does not escape to the
// heap: the issuing layers pass *Verb, and only an interface call copies
// it. The transports are:
//
//   - procTransport reaches endpoints registered in this process directly.
//   - Peer and remotePeer (socket.go, peer.go) reach endpoints hosted by
//     another OS process over a length-prefixed binary frame protocol.
//   - pmfsrep.Replicator fronts the PMFS node's route and mirrors its
//     writes to the follower replicas.
type Transport interface {
	Exec(v Verb) (Result, error)
}

// Op is a verb's opcode. The socket transport sends it as the request
// frame's op, so the values are wire format.
type Op uint8

// The verbs. A READ, WRITE or atomic addresses Off in region Name; an RPC
// invokes service Name.
const (
	OpRead      Op = iota + 1 // read len(Buf) bytes into Buf
	OpWrite                   // write Buf
	OpReadV                   // read every segment of Segs, one doorbell
	OpWriteV                  // write every segment of Segs, one doorbell
	OpCAS                     // compare the word with A, swap in B
	OpFAA                     // add A to the word
	OpCall                    // call with request Buf
	OpCallBatch               // call once per Reqs, in one round trip
)

// Verb is one work request, as an RNIC takes it through one post: the op,
// its source and target, and the operands the op reads. Result carries what
// comes back besides the bytes a read lands in Buf or Segs.
type Verb struct {
	Op        Op
	Src, Node common.NodeID // issuing node (AnyNode: unbound) and target
	Name      string        // region, or service for an RPC
	Off       int
	Buf       []byte // a Read's destination, a Write's data, a Call's request
	Segs      []Seg
	A, B      uint64 // CAS: old, new; FAA: delta
	// Reqs are a CallBatch's requests; Exec fills Resps, the caller's
	// len(Reqs) slots, with their responses.
	Reqs, Resps [][]byte
}

// Result is a verb's return: an atomic's previous word, or a Call's
// response.
type Result struct {
	Prev uint64
	Resp []byte
}

// class returns the verb's fault and charge class and the bytes it moves.
func (v *Verb) class() (string, int) {
	switch v.Op {
	case OpRead, OpReadV:
		return common.FaultRead, len(v.Buf) + segTotal(v.Segs)
	case OpWrite, OpWriteV:
		return common.FaultWrite, len(v.Buf) + segTotal(v.Segs)
	case OpCAS, OpFAA:
		return common.FaultAtomic, 8
	}
	n := len(v.Buf)
	for _, req := range v.Reqs {
		n += len(req)
	}
	return common.FaultRPC, n
}

// routeTable is the fabric's immutable routing snapshot, swapped atomically
// on attach/detach so the hot path pays one atomic load and no locks. A nil
// table (the common single-process case) short-circuits straight to the
// in-process transport.
type routeTable struct {
	remotes map[common.NodeID]Transport
	def     Transport // default route for nodes not known locally (uplink)
}

// transportFor picks the transport owning node: an explicit remote route
// first, then the default route for nodes with no local endpoint, then the
// in-process transport.
func (f *Fabric) transportFor(node common.NodeID) Transport {
	rt := f.routes.Load()
	if rt == nil {
		return f.local
	}
	if t, ok := rt.remotes[node]; ok {
		return t
	}
	if rt.def != nil && !f.hasEndpoint(node) {
		return rt.def
	}
	return f.local
}

// hasEndpoint reports whether node ever registered locally. A locally
// registered-but-down endpoint stays local on purpose: the crash of a node
// this process hosts must surface as ErrNodeDown, not be routed away.
func (f *Fabric) hasEndpoint(node common.NodeID) bool {
	f.mu.RLock()
	_, ok := f.endpoints[node]
	f.mu.RUnlock()
	return ok
}

// updateRoutes copy-on-writes the route table under routesMu (reads stay
// lock-free).
func (f *Fabric) updateRoutes(fn func(rt *routeTable)) {
	f.routesMu.Lock()
	defer f.routesMu.Unlock()
	cur := f.routes.Load()
	next := &routeTable{remotes: make(map[common.NodeID]Transport)}
	if cur != nil {
		for k, v := range cur.remotes {
			next.remotes[k] = v
		}
		next.def = cur.def
	}
	fn(next)
	if len(next.remotes) == 0 && next.def == nil {
		f.routes.Store(nil) // restore the zero-cost fast path
		return
	}
	f.routes.Store(next)
}

// AttachRemote routes verbs destined for node through t. Attaching over an
// existing route replaces it (peer reconnect).
func (f *Fabric) AttachRemote(node common.NodeID, t Transport) {
	f.updateRoutes(func(rt *routeTable) { rt.remotes[node] = t })
}

// DetachRemote removes node's remote route; verbs fall back to the local
// lookup (and thus ErrNodeDown if no endpoint exists).
func (f *Fabric) DetachRemote(node common.NodeID) {
	f.updateRoutes(func(rt *routeTable) { delete(rt.remotes, node) })
}

// AttachDefault installs t as the route for every node without a local
// endpoint — a satellite process points this at its uplink peer so PMFS and
// all other primaries are reachable without enumerating them.
func (f *Fabric) AttachDefault(t Transport) {
	f.updateRoutes(func(rt *routeTable) { rt.def = t })
}

// LocalTransport returns the fabric's in-process transport — the terminal
// route a verb takes once routing resolves to this process. Interposing
// layers (pmfsrep wraps the PMFS node's route) use it to reach the real
// endpoint without re-entering routing and recursing into themselves.
func (f *Fabric) LocalTransport() Transport { return f.local }

// procTransport is the in-process transport: verbs execute directly against
// endpoints registered in this fabric. It is the transport every fabric
// starts with and the only one single-process deployments ever touch.
type procTransport struct{ f *Fabric }

// region resolves a live endpoint's registered region and sleeps the
// one-sided latency; a vectored verb's segments are all checked first, so a
// bad segment fails the chain before any element executes.
func (t *procTransport) region(node common.NodeID, name string, segs []Seg) (*Region, error) {
	ep, err := t.f.lookup(node)
	if err != nil {
		return nil, err
	}
	r, err := ep.region(name)
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		if err := r.check(s.Off, len(s.Buf)); err != nil {
			return nil, err
		}
	}
	t.f.latency.sleep(t.f.latency.OneSided)
	return r, nil
}

// service resolves a live endpoint's RPC handler and sleeps the RPC latency.
func (t *procTransport) service(node common.NodeID, name string) (*Endpoint, Handler, error) {
	ep, err := t.f.lookup(node)
	if err != nil {
		return nil, nil, err
	}
	h, err := ep.service(name)
	if err != nil {
		return nil, nil, err
	}
	t.f.latency.sleep(t.f.latency.RPC)
	return ep, h, nil
}

// Exec runs v against this process's endpoints.
func (t *procTransport) Exec(v Verb) (Result, error) {
	if v.Op == OpCall || v.Op == OpCallBatch {
		return t.call(&v)
	}
	r, err := t.region(v.Node, v.Name, v.Segs)
	if err != nil {
		return Result{}, err
	}
	var prev uint64
	switch v.Op {
	case OpRead:
		err = r.read(v.Off, v.Buf)
	case OpWrite:
		err = r.write(v.Off, v.Buf)
	case OpReadV:
		for _, s := range v.Segs {
			_ = r.read(s.Off, s.Buf) // region checked every segment
		}
	case OpWriteV:
		for _, s := range v.Segs {
			_ = r.write(s.Off, s.Buf)
		}
	case OpCAS:
		prev, err = r.cas64(v.Off, v.A, v.B)
	case OpFAA:
		prev, err = r.fetchAdd64(v.Off, v.A)
	default:
		err = fmt.Errorf("rdma: verb op %d: %w", v.Op, common.ErrNoService)
	}
	return Result{Prev: prev}, err
}

// call runs an RPC verb: the handler once, or once per request of a batch,
// where a handler error fails the whole batch.
func (t *procTransport) call(v *Verb) (Result, error) {
	ep, h, err := t.service(v.Node, v.Name)
	if err != nil {
		return Result{}, err
	}
	var res Result
	if v.Op == OpCall {
		res.Resp, err = h(v.Buf)
	} else {
		for i := 0; i < len(v.Reqs) && err == nil; i++ {
			v.Resps[i], err = h(v.Reqs[i])
		}
	}
	if err != nil {
		return Result{}, err
	}
	// Re-check liveness: an RPC completed against a node that died
	// mid-call is reported as a network failure, like a torn QP.
	if ep.isDown() {
		return Result{}, errNodeDiedDuringCall(v.Node)
	}
	return res, nil
}

var _ Transport = (*procTransport)(nil)

// routes is stored on the Fabric as an atomic pointer; declared here so the
// struct field type is next to its operations.
type routesPtr = atomic.Pointer[routeTable]
