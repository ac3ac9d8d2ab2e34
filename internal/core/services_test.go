package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/membership"
	"polardbmp/internal/page"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
	"polardbmp/internal/txfusion"
	"polardbmp/internal/wire"
)

// fabricServices is every Endpoint.Serve service but txfusion's, with the
// number of ops each decodes.
var fabricServices = []struct {
	name string
	ops  int
}{
	{membership.Service, 4},
	{bufferfusion.ServiceBuf, 3},
	{lockfusion.ServiceRLock, 3},
	{lockfusion.ServiceWake, 1},
	{lockfusion.ServicePLock, 2},
	{lockfusion.ServiceRevoke, 1},
	{storage.ServiceStorage, 17},
	{ServiceCluster, 6},
	{ServiceTxStatus, 1},
}

// gatedServices read a trailing epoch stamp and check it at the membership
// gate; their clients' Conns append it to every request.
var gatedServices = map[string]bool{
	lockfusion.ServicePLock: true, lockfusion.ServiceRLock: true, bufferfusion.ServiceBuf: true,
}

// serviceSeed is one recorded request: the service, the node serving it and
// the payload.
type serviceSeed struct {
	service string
	node    common.NodeID
	req     []byte
}

// recorder is a fabric route that records every RPC request it carries
// before passing the verb on.
type recorder struct {
	rdma.Transport
	mu   sync.Mutex
	reqs []serviceSeed
}

func (r *recorder) add(service string, node common.NodeID, req []byte) {
	r.mu.Lock()
	r.reqs = append(r.reqs, serviceSeed{service, node, append([]byte(nil), req...)})
	r.mu.Unlock()
}

func (r *recorder) Exec(v rdma.Verb) (rdma.Result, error) {
	switch v.Op {
	case rdma.OpCall:
		r.add(v.Name, v.Node, v.Buf)
	case rdma.OpCallBatch:
		for _, req := range v.Reqs {
			r.add(v.Name, v.Node, req)
		}
	}
	return r.Transport.Exec(v)
}

// seeds returns the first request of each (service, op), the op being a
// request's first byte (txstatus has one op and no op byte).
func (r *recorder) seeds() []serviceSeed {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	var out []serviceSeed
	for _, s := range r.reqs {
		key := s.service
		if s.service != ServiceTxStatus && len(s.req) > 0 {
			key += fmt.Sprint(s.req[0])
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	return out
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// recordServiceSeeds returns one well-formed request per op of every
// service in fabricServices, as the real clients encode it. The clients run
// against the real servers on a bare fabric whose every route records, so
// no request is written by hand; their Conns carry no epoch stamp. Node and
// page ids are chosen so that replaying a seed on a two-node cluster touches
// nothing the cluster itself uses: pages above 2^40, log streams 9 and 10,
// membership slots 4 and 5.
func recordServiceSeeds(t testing.TB) []serviceSeed {
	t.Helper()
	f := rdma.NewFabric(rdma.Latency{})
	rec := &recorder{Transport: f.LocalTransport()}
	for _, id := range []common.NodeID{common.PMFSNode, 1, 2, 3} {
		f.AttachRemote(id, rec)
	}
	pmfs := f.Register(common.PMFSNode)
	store := storage.New(storage.Latency{})
	txfusion.NewServer(pmfs, f)
	locks := lockfusion.NewServer(pmfs, f)
	bufferfusion.NewServer(pmfs, f, store, 16)
	membership.NewTable(pmfs)
	storage.Serve(pmfs, store)
	canned := func([]byte) ([]byte, error) { return nil, nil }
	pmfs.Serve(ServiceCluster, canned)
	var (
		tf []*txfusion.Client
		pl []*lockfusion.PLockClient
		rl []*lockfusion.RLockClient
		bf []*bufferfusion.Client
	)
	for id := common.NodeID(1); id <= 3; id++ {
		ep := f.Register(id)
		tf = append(tf, txfusion.NewClient(ep, f, txfusion.Config{}))
		pl = append(pl, lockfusion.NewPLockClient(ep, f, lockfusion.Config{}))
		rl = append(rl, lockfusion.NewRLockClient(ep, f, tf[id-1], lockfusion.Config{WaitTimeout: 5 * time.Second}))
		bf = append(bf, bufferfusion.NewClient(ep, f, store, 16))
		if id == 1 {
			ep.Serve(ServiceTxStatus, canned)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	pg := func(i int) common.PageID { return common.PageID(1<<40 + i) }

	// PLock: an acquire; a release of two lazily held pages; a revoke of a
	// lazily held page node 2 wants.
	must(pl[0].Acquire(pg(0), lockfusion.ModeS))
	pl[0].Release(pg(0))
	must(pl[0].Acquire(pg(1), lockfusion.ModeS))
	pl[0].Release(pg(1))
	pl[0].ReleaseAll()
	must(pl[0].Acquire(pg(3), lockfusion.ModeX))
	pl[0].Release(pg(3))
	must(pl[1].Acquire(pg(3), lockfusion.ModeX))
	pl[1].Release(pg(3))

	// RLock: a wait that runs out of budget retracts its edge; a wait the
	// holder's commit ends is woken.
	holder, err := tf[0].Begin(1)
	must(err)
	waiter, err := tf[1].Begin(2)
	must(err)
	if err := rl[1].WaitForDeadline(waiter, holder, common.DeadlineAt(time.Now().Add(20*time.Millisecond))); !errors.Is(err, common.ErrDeadlineExceeded) {
		t.Fatalf("bounded wait: %v", err)
	}
	woken := make(chan error, 1)
	go func() { woken <- rl[1].WaitFor(waiter, holder) }()
	waitUntil(t, "a wait edge", func() bool { return locks.RLock.WaitEdges() == 1 })
	cts, err := tf[0].NextCommitCSN()
	must(err)
	_, err = tf[0].Commit(holder, cts)
	must(err)
	rl[0].NotifyCommitted(holder)
	must(<-woken)

	// Buffer Fusion: a push, then a peer's lookup of the pushed page.
	fr, err := bf[0].NewPage(page.New(pg(6), 1, page.TypeLeaf))
	must(err)
	must(bf[0].Push(fr))
	bf[0].Unpin(fr)
	got, err := bf[1].Get(pg(6))
	must(err)
	bf[1].Unpin(got)

	// Membership: two joins, an eviction of the agent that never renews,
	// and a drain.
	lease := membership.Config{RenewInterval: time.Millisecond, LeaseTimeout: 10 * time.Millisecond}
	a := membership.NewAgent(4, common.PMFSNode, f, nil, lease)
	b := membership.NewAgent(5, common.PMFSNode, f, nil, lease)
	must(a.Join())
	must(b.Join())
	a.Start()
	waitUntil(t, "an eviction", func() bool { return len(rec.seeds()) > 0 && countOps(rec.seeds(), membership.Service) == 2 })
	a.Stop()
	must(a.StartDrain())
	must(a.FinishDrain())

	// Storage, as a satellite's uplink speaks it.
	st := storage.NewRemote(f.From(1))
	id := st.AllocPage()
	must(st.WritePage(id, []byte("img")))
	_, err = st.ReadPage(id)
	must(err)
	st.PageIDs()
	st.PutMeta("k", []byte("v"))
	st.GetMeta("k")
	st.LogAppend(9, []byte("rec1"))
	st.LogTruncate(9, 0)
	st.LogAppend(9, []byte("rec2"))
	st.LogSync(9)
	st.LogDurableLSN(9)
	st.LogStartLSN(9)
	_, err = st.LogRead(9, 0, make([]byte, 16))
	must(err)
	st.LogCrashVolatile(9)
	st.FenceLog(9)
	st.UnfenceLog(9)
	st.LogNodes()

	// Cluster admin and txstatus, as a satellite's cluster sends them; the
	// canned answers make some of these calls fail, after the request left.
	sat := &Cluster{fabric: f}
	_, _ = sat.allocNodeRemote()
	_, _ = sat.createSpaceRemote("s")
	_ = sat.drainCleanupRemote(9)
	_ = sat.freeNodeRemote(9)
	_, _ = sat.topologyRemote()
	g := common.GTrxID{Node: 1, Trx: 7, Slot: 3, Version: 1}
	_, _, _ = sat.txStatusSeed(g)
	_, _, _ = sat.txStatusRemote(g)

	var seeds []serviceSeed
	for _, s := range rec.seeds() {
		for _, svc := range fabricServices {
			if s.service == svc.name {
				seeds = append(seeds, s)
			}
		}
	}
	for _, svc := range fabricServices {
		if n := countOps(seeds, svc.name); n != svc.ops {
			t.Fatalf("recorded %d ops of %s, want %d", n, svc.name, svc.ops)
		}
	}
	return seeds
}

func countOps(seeds []serviceSeed, service string) int {
	n := 0
	for _, s := range seeds {
		if s.service == service {
			n++
		}
	}
	return n
}

// newServicesCluster is the cluster seeds replay on: two nodes, small
// buffer pools, no background recycling.
func newServicesCluster(t testing.TB) *Cluster {
	t.Helper()
	c := NewCluster(Config{DBPFrames: 64, LBPFrames: 64, RecycleInterval: -1})
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(); err != nil {
			c.Close()
			t.Fatal(err)
		}
	}
	return c
}

// callService sends req to the service's handler on node.
func callService(c *Cluster, service string, node common.NodeID, req []byte) error {
	_, err := c.fabric.Call(node, service, req)
	return err
}

// servicesState is what the nine services keep that a request may change.
func servicesState(c *Cluster) string {
	epoch, slots := c.members.Snapshot()
	s := fmt.Sprintf("plock:\n%swait edges %d\ndbp %d/%d/%d/%d\nmembers %d %v\npages %d",
		c.lockSrv.PLock.DebugDump(), c.lockSrv.RLock.WaitEdges(),
		c.bufSrv.Hits.Load(), c.bufSrv.Misses.Load(), c.bufSrv.Pushes.Load(), c.bufSrv.Evictions.Load(),
		epoch, slots, len(c.store.PageIDs()))
	for _, id := range []common.NodeID{9, 10} {
		s += fmt.Sprintf("\nlog %d: %d %d %d %v", id, c.store.LogStartLSN(id), c.store.LogDurableLSN(id),
			c.store.LogEndLSN(id), c.store.LogFenced(id))
	}
	for _, n := range c.Nodes() {
		s += fmt.Sprintf("\nnode %d retains %d", n.id, n.pl.Retained())
	}
	c.mu.Lock()
	s += fmt.Sprintf("\nnext node %d meta %q %q", c.nextNode, c.store.GetMeta(spaceDirKey), c.store.GetMeta("k"))
	c.mu.Unlock()
	return s
}

// TestServicesRefuseMisfitRequests: every op of the nine services accepts
// its well-formed request, and refuses as corrupt, changing nothing, the
// same request cut by one byte or extended by one. A gated request whose
// epoch stamp is stale is refused at the gate, and one whose stale stamp is
// cut short is refused as corrupt — never read as unstamped and granted.
func TestServicesRefuseMisfitRequests(t *testing.T) {
	seeds := recordServiceSeeds(t)
	c := newServicesCluster(t)
	defer c.Close()
	for _, s := range seeds {
		name := fmt.Sprintf("%s op %d", s.service, s.req[0])
		refused := func(variant string, req []byte, want error) {
			t.Helper()
			before := servicesState(c)
			if err := callService(c, s.service, s.node, req); !errors.Is(err, want) {
				t.Errorf("%s %s (%x): err = %v, want %v", name, variant, req, err, want)
			}
			if after := servicesState(c); after != before {
				t.Errorf("%s %s changed server state:\n%s\nwas\n%s", name, variant, after, before)
			}
		}
		refused("cut by one byte", s.req[:len(s.req)-1], common.ErrCorrupt)
		refused("extended by one byte", append(append([]byte(nil), s.req...), 0), common.ErrCorrupt)
		var stamp *common.EpochStamp
		if gatedServices[s.service] {
			node := common.NodeID(wire.NewReader(s.req[1:]).U16())
			if s.service == lockfusion.ServiceRLock {
				g, _, _ := common.UnmarshalGTrxID(s.req[1:])
				node = g.Node
			}
			c.mu.Lock()
			n := c.nodes[node]
			c.mu.Unlock()
			if n == nil {
				t.Fatalf("%s: seed names node %d, which the cluster does not host", name, node)
			}
			stale := &common.EpochStamp{}
			stale.Store(n.agent.Epoch() + 1000)
			staleReq := stale.Stamp(append([]byte(nil), s.req...))
			refused("with a stale stamp", staleReq, common.ErrStaleEpoch)
			for cut := 1; cut < 8; cut++ {
				refused(fmt.Sprintf("with a stale stamp cut by %d", cut), staleReq[:len(staleReq)-cut], common.ErrCorrupt)
			}
			stamp = &common.EpochStamp{}
			stamp.Store(n.agent.Epoch())
		}
		if err := callService(c, s.service, s.node, s.req); errors.Is(err, common.ErrCorrupt) {
			t.Errorf("%s (%x) refused: %v", name, s.req, err)
		}
		if stamp != nil {
			if err := callService(c, s.service, s.node, stamp.Stamp(append([]byte(nil), s.req...))); err != nil {
				t.Errorf("%s stamped with the live epoch refused: %v", name, err)
			}
		}
	}
}

// FuzzServices: no payload panics any of the nine services, a payload one
// refuses costs at most 64 KiB, and none blocks its handler. Each input runs
// on a fresh cluster, so no input can wedge the state the next one sees.
func FuzzServices(f *testing.F) {
	for _, s := range recordServiceSeeds(f) {
		for i, svc := range fabricServices {
			if svc.name == s.service {
				f.Add(uint8(i), s.req)
			}
		}
	}
	// The storage ops a client built before their deletion still sends
	// (HasPage, PageCount, LogFenced), and the single-page PLock release
	// and revoke of fabric protocol v2: refused, never served.
	for i, svc := range fabricServices {
		if svc.name == storage.ServiceStorage {
			f.Add(uint8(i), wire.AppendU64([]byte{4}, 1))
			f.Add(uint8(i), []byte{6})
			f.Add(uint8(i), wire.AppendU16([]byte{18}, 1))
		}
	}
	for i, svc := range fabricServices {
		switch svc.name {
		case lockfusion.ServicePLock:
			f.Add(uint8(i), wire.AppendU64(append(wire.AppendU64(wire.AppendU16([]byte{2}, 1), 1<<40), byte(lockfusion.ModeX)), 9))
		case lockfusion.ServiceRevoke:
			f.Add(uint8(i), append(wire.AppendU64(wire.AppendU16([]byte{3}, 2), 1<<40), byte(lockfusion.ModeS)))
		}
	}
	f.Fuzz(func(t *testing.T, svc uint8, req []byte) {
		service := fabricServices[int(svc)%len(fabricServices)].name
		node := common.PMFSNode
		switch service {
		case lockfusion.ServiceWake, lockfusion.ServiceRevoke, ServiceTxStatus:
			node = 1
		}
		c := newServicesCluster(t)
		defer c.Close()
		done := make(chan struct{})
		var err error
		var m0, m1 runtime.MemStats
		go func() {
			defer close(done)
			runtime.ReadMemStats(&m0)
			err = callService(c, service, node, req)
			runtime.ReadMemStats(&m1)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked on %x", service, req)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; errors.Is(err, common.ErrCorrupt) && alloc > 64<<10 {
			t.Fatalf("%s refused %x after allocating %d bytes", service, req, alloc)
		}
	})
}

// TestServicesAnswerWithHandlerError: every fabric service answers a request
// it refuses with its handler error, in one process and across a socket
// link. An unknown storage or cluster-admin op is ErrNoService, a tx-status
// request cut short is ErrCorrupt, and none comes back as a successful reply
// carrying the status inside it.
func TestServicesAnswerWithHandlerError(t *testing.T) {
	inProc := newServicesCluster(t)
	defer inProc.Close()
	_, sats := multiProcess(t, Config{RecycleInterval: -1}, 1)
	for _, c := range []struct {
		name string
		c    *Cluster
	}{{"in-process", inProc}, {"satellite", sats[0]}} {
		conn := c.c.fabric.From(common.AnyNode)
		for _, call := range []struct {
			service string
			node    common.NodeID
			req     []byte
			want    error
		}{
			{storage.ServiceStorage, common.PMFSNode, []byte{0xee}, common.ErrNoService},
			{ServiceCluster, common.PMFSNode, []byte{0xee}, common.ErrNoService},
			{ServiceTxStatus, 1, []byte{1}, common.ErrCorrupt},
		} {
			if resp, err := conn.Call(call.node, call.service, call.req); !errors.Is(err, call.want) {
				t.Errorf("%s: %s %x: reply %x, err %v; want %v", c.name, call.service, call.req, resp, err, call.want)
			}
		}
	}
}
