// Package rdma simulates the RDMA network PolarDB-MP is co-designed with
// (§2.5, §3): registered memory regions addressable by one-sided verbs
// (READ/WRITE/CAS/FETCH-ADD) plus an RDMA-based RPC layer.
//
// The simulation is an in-process fabric. Each node registers named byte
// regions; remote nodes access them only through fabric verbs, never through
// shared Go pointers, so op counts and the memory-vs-storage latency gap the
// paper's evaluation relies on are preserved (DESIGN.md substitution S1).
// Latency injection is configurable; with zero injected latency an in-process
// verb costs a few hundred nanoseconds, which stands in for the 1-3µs of a
// real one-sided op while shared storage I/O is simulated at ~150µs.
package rdma

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
)

// Handler serves one RPC method. The request buffer must not be retained.
type Handler func(req []byte) ([]byte, error)

// Latency configures injected delays per verb class. Zero values inject
// nothing (the in-process cost itself models the fast fabric).
type Latency struct {
	OneSided time.Duration // READ/WRITE/CAS/FETCH-ADD
	RPC      time.Duration // request/response round trip
}

func (l Latency) sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Stats counts fabric operations, for the paper's message-overhead arguments
// (e.g. lazy PLock release, §4.3.1) and the ablation benches.
type Stats struct {
	Reads      metrics.Counter
	Writes     metrics.Counter
	Atomics    metrics.Counter
	RPCs       metrics.Counter
	BytesRead  metrics.Counter
	BytesWrite metrics.Counter
}

// OpCounts is a fabric-operation footprint: a Stats snapshot, or the
// difference of two. Vectored verbs (ReadV / WriteV / CallBatch) count as ONE
// op in reads/writes/rpcs — the doorbell is the unit the op-budget arguments
// are made in — while the byte counters accumulate every segment. The JSON
// names are the stats surface's (ClusterStats "fabric", trace stage "ops").
type OpCounts struct {
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	Atomics    int64 `json:"atomics"`
	RPCs       int64 `json:"rpcs"`
	BytesRead  int64 `json:"bytes_read"`
	BytesWrite int64 `json:"bytes_write"`
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() OpCounts {
	return OpCounts{s.Reads.Load(), s.Writes.Load(), s.Atomics.Load(), s.RPCs.Load(),
		s.BytesRead.Load(), s.BytesWrite.Load()}
}

// Sub returns o - b, field by field.
func (o OpCounts) Sub(b OpCounts) OpCounts {
	return OpCounts{o.Reads - b.Reads, o.Writes - b.Writes, o.Atomics - b.Atomics,
		o.RPCs - b.RPCs, o.BytesRead - b.BytesRead, o.BytesWrite - b.BytesWrite}
}

// Add accumulates b into o.
func (o *OpCounts) Add(b OpCounts) {
	o.Reads += b.Reads
	o.Writes += b.Writes
	o.Atomics += b.Atomics
	o.RPCs += b.RPCs
	o.BytesRead += b.BytesRead
	o.BytesWrite += b.BytesWrite
}

// Total returns the verb count (ops, not bytes).
func (o OpCounts) Total() int64 { return o.Reads + o.Writes + o.Atomics + o.RPCs }

// charge counts one successfully executed verb of class moving n bytes
// (bytes are counted for one-sided READ/WRITE only). It is the only place
// the counters advance.
func (s *Stats) charge(class string, n int) {
	switch class {
	case common.FaultRead:
		s.Reads.Inc()
		s.BytesRead.Add(int64(n))
	case common.FaultWrite:
		s.Writes.Inc()
		s.BytesWrite.Add(int64(n))
	case common.FaultAtomic:
		s.Atomics.Inc()
	case common.FaultRPC:
		s.RPCs.Inc()
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.Reads.Reset()
	s.Writes.Reset()
	s.Atomics.Reset()
	s.RPCs.Reset()
	s.BytesRead.Reset()
	s.BytesWrite.Reset()
}

// Fabric connects a set of endpoints. It is safe for concurrent use.
type Fabric struct {
	latency Latency
	stats   Stats
	// inj holds a common.FaultInjector consulted before every verb
	// (nil function value when injection is off).
	inj atomic.Value

	mu        sync.RWMutex
	endpoints map[common.NodeID]*Endpoint

	// sources holds what a Conn binds per issuing node: the mirror of the
	// fabric-wide counters (so the tracer can attribute ops and bytes to the
	// node that spent them) and the node's epoch stamp. retry is the policy
	// every Conn starts with (zero value: common.DefaultRetryPolicy).
	srcMu   sync.Mutex
	sources map[common.NodeID]*source
	retry   common.RetryPolicy

	// local is the in-process transport (boxed once so the hot path never
	// allocates); routes holds the optional remote routing table, nil in
	// single-process deployments so transportFor is one atomic load.
	local    Transport
	routes   routesPtr
	routesMu sync.Mutex

	// faults is the connection-level fault registry for this fabric's socket
	// links (faults.go); zero value means chaos off.
	faults LinkFaults
}

// NewFabric creates an empty fabric with the given latency model.
func NewFabric(latency Latency) *Fabric {
	f := &Fabric{
		latency:   latency,
		endpoints: make(map[common.NodeID]*Endpoint),
		sources:   make(map[common.NodeID]*source),
	}
	f.local = &procTransport{f: f}
	return f
}

// Stats exposes the fabric's operation counters.
func (f *Fabric) Stats() *Stats { return &f.stats }

// source is one issuing node's per-fabric state.
type source struct {
	stats Stats
	stamp *common.EpochStamp
}

// sourceLocked returns node's source, creating it; f.srcMu is held.
func (f *Fabric) sourceLocked(node common.NodeID) *source {
	s := f.sources[node]
	if s == nil {
		s = &source{}
		f.sources[node] = s
	}
	return s
}

// SrcStats returns the per-source counters for ops issued as node. The
// counters survive node crash/restart (they are cumulative per identity)
// and are shared by every Conn bound to that source. Ops issued through the
// raw Fabric methods (unbound source) are not attributed.
func (f *Fabric) SrcStats(node common.NodeID) *Stats {
	f.srcMu.Lock()
	defer f.srcMu.Unlock()
	return &f.sourceLocked(node).stats
}

// SetConnRetry sets the retry policy of every Conn a later From makes (until
// then: common.DefaultRetryPolicy). A cluster process calls it once, first.
func (f *Fabric) SetConnRetry(p common.RetryPolicy) {
	f.srcMu.Lock()
	f.retry = p
	f.srcMu.Unlock()
}

// BindStamp makes every Conn a later From(node) returns append s's epoch —
// the node's incarnation, which the fusion servers' gates check — to its RPCs.
func (f *Fabric) BindStamp(node common.NodeID, s *common.EpochStamp) {
	f.srcMu.Lock()
	f.sourceLocked(node).stamp = s
	f.srcMu.Unlock()
}

// SetInjector installs (or, with nil, removes) a fault injector consulted
// before every fabric verb. Safe to call while ops are in flight.
func (f *Fabric) SetInjector(inj common.FaultInjector) { f.inj.Store(inj) }

// issue is the one path every verb takes. It asks the injector for a
// verdict on v's class and byte count (sleeping an injected delay, failing
// a dropped op before anything executes), executes v on the transport that
// owns v.Node — twice for a duplicated one-sided READ/WRITE, as a NIC
// re-executing an idempotent verb would — and charges every successful
// execution once to the fabric's counters and the source mirror ss (nil:
// unbound). An RPC whose reply the verdict drops ran, so it is charged, and
// then fails. A vectored verb with no elements is a no-op.
func (f *Fabric) issue(v *Verb, ss *Stats) (Result, error) {
	if (v.Op == OpReadV || v.Op == OpWriteV) && len(v.Segs) == 0 || v.Op == OpCallBatch && len(v.Reqs) == 0 {
		return Result{}, nil
	}
	class, n := v.class()
	var d common.FaultDecision
	if inj, _ := f.inj.Load().(common.FaultInjector); inj != nil {
		d = inj(common.FaultOp{
			Layer: common.FaultLayerRDMA, Class: class,
			Src: v.Src, Dst: v.Node, Name: v.Name, Len: n,
		})
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Err != nil {
			return Result{}, fmt.Errorf("rdma: %s %q @ node %d: %w", class, v.Name, v.Node, d.Err)
		}
	}
	t := f.transportFor(v.Node)
	runs := 1
	if d.Duplicate && (class == common.FaultRead || class == common.FaultWrite) {
		runs = 2 // atomics and RPCs are not idempotent, so never duplicated
	}
	var res Result
	for ; runs > 0; runs-- {
		var err error
		if res, err = t.Exec(*v); err != nil {
			return Result{}, err
		}
		f.stats.charge(class, n)
		if ss != nil {
			ss.charge(class, n)
		}
	}
	if d.DropReply && class == common.FaultRPC {
		return Result{}, errReplyLost(v.Name, v.Node)
	}
	return res, nil
}

// Register creates (or revives) the endpoint for node. Registering an id
// that already has a live endpoint panics: that is a wiring bug.
func (f *Fabric) Register(node common.NodeID) *Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ep, ok := f.endpoints[node]; ok && !ep.isDown() {
		panic(fmt.Sprintf("rdma: node %d already registered", node))
	}
	ep := &Endpoint{
		node:     node,
		fabric:   f,
		regions:  make(map[string]*Region),
		services: make(map[string]Handler),
	}
	f.endpoints[node] = ep
	return ep
}

// lookup returns the live endpoint for node.
func (f *Fabric) lookup(node common.NodeID) (*Endpoint, error) {
	f.mu.RLock()
	ep := f.endpoints[node]
	f.mu.RUnlock()
	if ep == nil || ep.isDown() {
		return nil, fmt.Errorf("rdma: node %d: %w", node, common.ErrNodeDown)
	}
	return ep, nil
}

// raw is the Conn the raw Fabric verbs issue through: unbound, unstamped
// and single-shot.
func (f *Fabric) raw() Conn {
	return Conn{f: f, src: common.AnyNode, retry: common.NoRetryPolicy()}
}

// Read performs a one-sided read of len(dst) bytes from (node, region, off).
func (f *Fabric) Read(node common.NodeID, region string, off int, dst []byte) error {
	return f.raw().Read(node, region, off, dst)
}

// Write performs a one-sided write of src to (node, region, off).
func (f *Fabric) Write(node common.NodeID, region string, off int, src []byte) error {
	return f.raw().Write(node, region, off, src)
}

// Read64 reads an 8-byte little-endian word.
func (f *Fabric) Read64(node common.NodeID, region string, off int) (uint64, error) {
	return f.raw().Read64(node, region, off)
}

// Write64 writes an 8-byte little-endian word.
func (f *Fabric) Write64(node common.NodeID, region string, off int, v uint64) error {
	return f.raw().Write64(node, region, off, v)
}

// CAS64 atomically compares-and-swaps the word at (node, region, off).
// It returns the value observed before the operation; the swap happened iff
// that equals old.
func (f *Fabric) CAS64(node common.NodeID, region string, off int, old, new uint64) (uint64, error) {
	return f.raw().CAS64(node, region, off, old, new)
}

// FetchAdd64 atomically adds delta to the word at (node, region, off) and
// returns the previous value.
func (f *Fabric) FetchAdd64(node common.NodeID, region string, off int, delta uint64) (uint64, error) {
	return f.raw().FetchAdd64(node, region, off, delta)
}

// Call invokes an RPC service method on node. The response buffer is owned
// by the caller.
func (f *Fabric) Call(node common.NodeID, service string, req []byte) ([]byte, error) {
	return f.raw().Call(node, service, req)
}

func errNodeDiedDuringCall(node common.NodeID) error {
	return fmt.Errorf("rdma: node %d died during call: %w", node, common.ErrNodeDown)
}

func errReplyLost(service string, node common.NodeID) error {
	return fmt.Errorf("rdma: rpc %q @ node %d: response lost: %w", service, node, common.ErrInjected)
}

// Endpoint is one node's attachment to the fabric: its registered memory
// regions and RPC services.
type Endpoint struct {
	node   common.NodeID
	fabric *Fabric

	mu       sync.RWMutex
	down     bool
	regions  map[string]*Region
	services map[string]Handler
}

// Node returns the endpoint's node id.
func (ep *Endpoint) Node() common.NodeID { return ep.node }

// RegisterRegion allocates and registers a memory region of size bytes.
func (ep *Endpoint) RegisterRegion(name string, size int) *Region {
	r := &Region{buf: make([]byte, size)}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if _, dup := ep.regions[name]; dup {
		panic(fmt.Sprintf("rdma: node %d region %q already registered", ep.node, name))
	}
	ep.regions[name] = r
	return r
}

// Serve registers an RPC handler under the given service name.
func (ep *Endpoint) Serve(service string, h Handler) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.services[service] = h
}

// Deregister tears the endpoint down, simulating a node crash: all verbs and
// calls targeting it fail with ErrNodeDown until the node re-registers.
func (ep *Endpoint) Deregister() {
	ep.mu.Lock()
	ep.down = true
	ep.mu.Unlock()
}

func (ep *Endpoint) isDown() bool {
	ep.mu.RLock()
	defer ep.mu.RUnlock()
	return ep.down
}

func (ep *Endpoint) service(name string) (Handler, error) {
	ep.mu.RLock()
	h := ep.services[name]
	ep.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("rdma: node %d service %q: %w", ep.node, name, common.ErrNoService)
	}
	return h, nil
}

func (ep *Endpoint) region(name string) (*Region, error) {
	ep.mu.RLock()
	r := ep.regions[name]
	ep.mu.RUnlock()
	if r == nil {
		return nil, fmt.Errorf("rdma: node %d region %q: %w", ep.node, name, common.ErrNoRegion)
	}
	return r, nil
}

// Region is a registered memory region. The owner may access it directly
// (local memory); remote nodes go through fabric verbs. All accesses are
// internally synchronized at word/range granularity by a region lock, which
// stands in for PCIe atomicity of the real NIC.
type Region struct {
	mu  sync.RWMutex
	buf []byte
}

// Size returns the region's length in bytes.
func (r *Region) Size() int {
	return len(r.buf)
}

func (r *Region) check(off, n int) error {
	if off < 0 || n < 0 || off > len(r.buf)-n { // off+n may overflow
		return fmt.Errorf("rdma: access [%d,%d) outside region of %d bytes: %w",
			off, off+n, len(r.buf), common.ErrOutOfBounds)
	}
	return nil
}

func (r *Region) read(off int, dst []byte) error {
	if err := r.check(off, len(dst)); err != nil {
		return err
	}
	r.mu.RLock()
	copy(dst, r.buf[off:])
	r.mu.RUnlock()
	return nil
}

func (r *Region) write(off int, src []byte) error {
	if err := r.check(off, len(src)); err != nil {
		return err
	}
	r.mu.Lock()
	copy(r.buf[off:], src)
	r.mu.Unlock()
	return nil
}

func (r *Region) cas64(off int, old, new uint64) (uint64, error) {
	if err := r.check(off, 8); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := binary.LittleEndian.Uint64(r.buf[off:])
	if cur == old {
		binary.LittleEndian.PutUint64(r.buf[off:], new)
	}
	return cur, nil
}

func (r *Region) fetchAdd64(off int, delta uint64) (uint64, error) {
	if err := r.check(off, 8); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := binary.LittleEndian.Uint64(r.buf[off:])
	binary.LittleEndian.PutUint64(r.buf[off:], cur+delta)
	return cur, nil
}

// LocalRead reads from the region without fabric accounting: the owner
// touching its own registered memory.
func (r *Region) LocalRead(off int, dst []byte) error { return r.read(off, dst) }

// LocalCAS64 CASes a word in the owner's own region.
func (r *Region) LocalCAS64(off int, old, new uint64) (uint64, error) {
	return r.cas64(off, old, new)
}

// LocalRead64 reads a word from the owner's own region.
func (r *Region) LocalRead64(off int) (uint64, error) {
	var b [8]byte
	if err := r.read(off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// LocalWrite64 writes a word to the owner's own region.
func (r *Region) LocalWrite64(off int, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return r.write(off, b[:])
}
