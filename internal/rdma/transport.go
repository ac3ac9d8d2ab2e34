package rdma

import (
	"sync/atomic"

	"polardbmp/internal/common"
)

// Transport executes fabric verbs against the endpoints it reaches, and
// only executes them. Faults and counts are the issuing Fabric's (issue):
// it consults the injector before the transport runs, runs a duplicated
// one-sided READ/WRITE twice, charges each successful execution once and
// loses an RPC reply the injector dropped — so every transport faults and
// counts alike. The transports are:
//
//   - procTransport reaches endpoints registered in this process directly.
//   - Peer and remotePeer (socket.go, peer.go) reach endpoints hosted by
//     another OS process over a length-prefixed binary frame protocol.
//   - pmfsrep.Replicator fronts the PMFS node's route and mirrors its
//     writes to the follower replicas.
type Transport interface {
	Read(src, node common.NodeID, region string, off int, dst []byte) error
	Write(src, node common.NodeID, region string, off int, data []byte) error
	ReadV(src, node common.NodeID, region string, segs []Seg) error
	WriteV(src, node common.NodeID, region string, segs []Seg) error
	CAS64(src, node common.NodeID, region string, off int, old, new uint64) (uint64, error)
	FetchAdd64(src, node common.NodeID, region string, off int, delta uint64) (uint64, error)
	Call(src, node common.NodeID, service string, req []byte) ([]byte, error)
	CallBatch(src, node common.NodeID, service string, reqs [][]byte) ([][]byte, error)
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

func (t *procTransport) Read(_, node common.NodeID, region string, off int, dst []byte) error {
	r, err := t.region(node, region, nil)
	if err != nil {
		return err
	}
	return r.read(off, dst)
}

func (t *procTransport) Write(_, node common.NodeID, region string, off int, data []byte) error {
	r, err := t.region(node, region, nil)
	if err != nil {
		return err
	}
	return r.write(off, data)
}

func (t *procTransport) ReadV(_, node common.NodeID, region string, segs []Seg) error {
	r, err := t.region(node, region, segs)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := r.read(s.Off, s.Buf); err != nil {
			return err
		}
	}
	return nil
}

func (t *procTransport) WriteV(_, node common.NodeID, region string, segs []Seg) error {
	r, err := t.region(node, region, segs)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := r.write(s.Off, s.Buf); err != nil {
			return err
		}
	}
	return nil
}

func (t *procTransport) CAS64(_, node common.NodeID, region string, off int, old, new uint64) (uint64, error) {
	r, err := t.region(node, region, nil)
	if err != nil {
		return 0, err
	}
	return r.cas64(off, old, new)
}

func (t *procTransport) FetchAdd64(_, node common.NodeID, region string, off int, delta uint64) (uint64, error) {
	r, err := t.region(node, region, nil)
	if err != nil {
		return 0, err
	}
	return r.fetchAdd64(off, delta)
}

func (t *procTransport) Call(_, node common.NodeID, service string, req []byte) ([]byte, error) {
	ep, h, err := t.service(node, service)
	if err != nil {
		return nil, err
	}
	resp, err := h(req)
	if err != nil {
		return nil, err
	}
	// Re-check liveness: an RPC completed against a node that died
	// mid-call is reported as a network failure, like a torn QP.
	if ep.isDown() {
		return nil, errNodeDiedDuringCall(node)
	}
	return resp, nil
}

func (t *procTransport) CallBatch(_, node common.NodeID, service string, reqs [][]byte) ([][]byte, error) {
	ep, h, err := t.service(node, service)
	if err != nil {
		return nil, err
	}
	resps := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp, err := h(req)
		if err != nil {
			return nil, err
		}
		resps[i] = resp
	}
	if ep.isDown() {
		return nil, errNodeDiedDuringCall(node)
	}
	return resps, nil
}

var _ Transport = (*procTransport)(nil)

// routes is stored on the Fabric as an atomic pointer; declared here so the
// struct field type is next to its operations.
type routesPtr = atomic.Pointer[routeTable]
