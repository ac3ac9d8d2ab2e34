package txfusion

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
)

// harness wires a PMFS server plus n node clients on one fabric.
func harness(t testing.TB, n int, cfg Config) (*Server, []*Client) {
	t.Helper()
	fabric := rdma.NewFabric(rdma.Latency{})
	srv := NewServer(fabric.Register(common.PMFSNode), fabric)
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = NewClient(fabric.Register(common.NodeID(i+1)), fabric, cfg)
	}
	return srv, clients
}

func TestTSOMonotonic(t *testing.T) {
	_, cs := harness(t, 2, Config{})
	var last common.CSN
	for i := 0; i < 100; i++ {
		c := cs[i%2]
		cts, err := c.NextCommitCSN()
		if err != nil {
			t.Fatal(err)
		}
		if cts <= last {
			t.Fatalf("TSO not monotonic: %d after %d", cts, last)
		}
		last = cts
	}
}

func TestBeginCommitLocalCTS(t *testing.T) {
	_, cs := harness(t, 1, Config{})
	c := cs[0]
	g, err := c.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Node != 1 || g.Trx != 1 {
		t.Fatalf("gtrx = %v", g)
	}
	// Active transaction resolves to CSNMax.
	cts, err := c.GetTrxCTS(g)
	if err != nil || cts != common.CSNMax {
		t.Fatalf("active cts = %d err = %v", cts, err)
	}
	if active, _ := c.IsActive(g); !active {
		t.Fatal("IsActive = false for running transaction")
	}
	if _, err := c.Commit(g, 42); err != nil {
		t.Fatal(err)
	}
	cts, err = c.GetTrxCTS(g)
	if err != nil || cts != 42 {
		t.Fatalf("committed cts = %d err = %v", cts, err)
	}
	if active, _ := c.IsActive(g); active {
		t.Fatal("IsActive = true after commit")
	}
}

func TestRemoteCTSRead(t *testing.T) {
	_, cs := harness(t, 2, Config{CTSCacheSize: -1})
	g, err := cs[0].Begin(7)
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 resolves node 1's transaction via one-sided read.
	cts, err := cs[1].GetTrxCTS(g)
	if err != nil || cts != common.CSNMax {
		t.Fatalf("remote active cts = %d err = %v", cts, err)
	}
	if _, err := cs[0].Commit(g, 77); err != nil {
		t.Fatal(err)
	}
	cts, err = cs[1].GetTrxCTS(g)
	if err != nil || cts != 77 {
		t.Fatalf("remote committed cts = %d err = %v", cts, err)
	}
}

func TestSlotReuseVersionMismatch(t *testing.T) {
	// One slot: the second Begin must reuse it with a bumped version,
	// and the stale gtrx must then resolve to CSNMin.
	_, cs := harness(t, 1, Config{TITSlots: 1})
	c := cs[0]
	g1, err := c.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(g1, 10); err != nil {
		t.Fatal(err)
	}
	c.Recycle(100) // g1's CTS 10 < 100: slot freed
	g2, err := c.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Slot != g1.Slot || g2.Version == g1.Version {
		t.Fatalf("slot not reused with new version: %v vs %v", g1, g2)
	}
	cts, err := c.GetTrxCTS(g1)
	if err != nil || cts != common.CSNMin {
		t.Fatalf("stale gtrx cts = %d err = %v (want CSNMin)", cts, err)
	}
}

func TestRecycleRespectsGMV(t *testing.T) {
	_, cs := harness(t, 1, Config{})
	c := cs[0]
	g1, _ := c.Begin(1)
	c.Commit(g1, 50)
	if n := c.Recycle(49); n != 0 {
		t.Fatalf("recycled %d slots with CTS above gmv", n)
	}
	if n := c.Recycle(50); n != 1 {
		t.Fatalf("recycled %d slots, want 1 (CTS==gmv is eligible)", n)
	}
	// Active transactions are never recycled.
	g2, _ := c.Begin(2)
	if n := c.Recycle(common.CSNMax); n != 0 {
		t.Fatalf("recycled active slot")
	}
	_ = g2
}

func TestTITFullAndRecovery(t *testing.T) {
	_, cs := harness(t, 1, Config{TITSlots: 2})
	c := cs[0]
	g1, _ := c.Begin(1)
	if _, err := c.Begin(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(3); !errors.Is(err, ErrTITFull) {
		t.Fatalf("err = %v, want ErrTITFull", err)
	}
	// Commit one with a real TSO timestamp + learn the GMV, then Begin
	// succeeds again via the opportunistic recycle.
	cts, err := c.NextCommitCSN()
	if err != nil {
		t.Fatal(err)
	}
	c.Commit(g1, cts)
	if _, err := c.ReportMinView(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(3); err != nil {
		t.Fatalf("begin after recycle: %v", err)
	}
}

func TestRefFlag(t *testing.T) {
	_, cs := harness(t, 2, Config{})
	g, _ := cs[0].Begin(1)
	ok, err := cs[1].SetRefFlag(g)
	if err != nil || !ok {
		t.Fatalf("SetRefFlag = %v, %v", ok, err)
	}
	waiters, err := cs[0].Commit(g, 9)
	if err != nil || !waiters {
		t.Fatalf("commit waiters = %v err = %v", waiters, err)
	}
	// Setting the flag on a finished transaction reports false.
	ok, err = cs[1].SetRefFlag(g)
	if err != nil || ok {
		t.Fatalf("SetRefFlag on committed = %v, %v", ok, err)
	}
}

func TestRefFlagLocal(t *testing.T) {
	_, cs := harness(t, 1, Config{})
	g, _ := cs[0].Begin(1)
	ok, err := cs[0].SetRefFlag(g)
	if err != nil || !ok {
		t.Fatalf("local SetRefFlag = %v, %v", ok, err)
	}
	if waiters, _ := cs[0].Commit(g, 9); !waiters {
		t.Fatal("local ref flag not observed at commit")
	}
}

func TestAbortFinish(t *testing.T) {
	_, cs := harness(t, 2, Config{})
	g, _ := cs[0].Begin(1)
	waiters := cs[0].Finish(g)
	if waiters {
		t.Fatal("no waiters expected")
	}
	// After Finish the slot is freed; remote resolution sees CSNMin
	// (no surviving row version can reference an aborted transaction).
	cts, err := cs[1].GetTrxCTS(g)
	if err != nil || cts != common.CSNMin {
		t.Fatalf("aborted cts = %d err = %v", cts, err)
	}
	if cs[0].ActiveSlots() != 0 {
		t.Fatal("slot not freed by Finish")
	}
}

func TestMinViewAggregation(t *testing.T) {
	srv, cs := harness(t, 2, Config{})
	v1 := cs[0].OpenView(10)
	cs[1].OpenView(20)
	gmv, err := cs[0].ReportMinView()
	if err != nil {
		t.Fatal(err)
	}
	if gmv != 10 {
		t.Fatalf("gmv = %d, want 10", gmv)
	}
	gmv, _ = cs[1].ReportMinView()
	if gmv != 10 {
		t.Fatalf("gmv from node 2 = %d, want 10 (node 1 still holds view 10)", gmv)
	}
	cs[0].CloseView(v1)
	gmv, _ = cs[0].ReportMinView()
	// Node 1 idle now: its min view is the current TSO (>= 1); global is
	// min(node1, node2=20).
	if gmv > 20 {
		t.Fatalf("gmv = %d, want <= 20", gmv)
	}
	_ = srv
}

// An idle node's report tick is one round trip: it carries "no local view",
// the server substitutes the oracle's value, and that value rides the reply
// into the reporter's view bound.
func TestIdleMinViewReportIsOneOp(t *testing.T) {
	srv, cs := harness(t, 2, Config{LamportReuse: true})
	for i := 0; i < 5; i++ {
		if _, err := cs[1].NextCommitCSN(); err != nil {
			t.Fatal(err)
		}
	}
	tso := srv.CurrentTSO()
	if b := cs[0].ViewBound(); b != 0 {
		t.Fatalf("fresh client's view bound = %d, want none", b)
	}
	ss := cs[0].fabric.Fabric().SrcStats(cs[0].Node())
	ops0 := ss.Snapshot()
	gmv, err := cs[0].ReportMinView()
	if err != nil {
		t.Fatal(err)
	}
	if d := ss.Snapshot().Sub(ops0); d.Total() != 1 || d.RPCs != 1 {
		t.Fatalf("idle report cost %+v, want exactly one RPC", d)
	}
	if gmv != tso {
		t.Fatalf("gmv = %d with both nodes idle, want the TSO value %d", gmv, tso)
	}
	if b := cs[0].ViewBound(); b != tso {
		t.Fatalf("view bound after the report = %d, want the TSO value %d", b, tso)
	}
	// Ablation: with Lamport reuse off there is no bound to be lazy about.
	_, off := harness(t, 1, Config{})
	if _, err := off[0].NextCommitCSN(); err != nil {
		t.Fatal(err)
	}
	if b := off[0].ViewBound(); b != 0 {
		t.Fatalf("view bound with Lamport reuse off = %d, want 0", b)
	}
}

func TestViewRefCounting(t *testing.T) {
	_, cs := harness(t, 1, Config{})
	c := cs[0]
	c.OpenView(5)
	c.OpenView(5)
	c.CloseView(5)
	if min := c.MinLocalView(); min != 5 {
		t.Fatalf("min = %d (second view at 5 still open)", min)
	}
	c.CloseView(5)
	if min := c.MinLocalView(); min != common.CSNMax {
		t.Fatalf("min = %d with no view open, want CSNMax: view multiset leaked", min)
	}
}

func TestLamportReuse(t *testing.T) {
	_, cs := harness(t, 1, Config{LamportReuse: true})
	c := cs[0]
	// Prime the cache with a fetch "in the future" relative to the next
	// request's arrival: NextCommitCSN refreshes the cached timestamp.
	if _, err := c.NextCommitCSN(); err != nil {
		t.Fatal(err)
	}
	// A read arriving now (before the cached fetch... the cached fetch
	// happened already, so reuse only applies if fetchedAt > arrival;
	// issue a commit concurrently to refresh while requests arrive).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.NextCommitCSN()
		}
	}()
	var prev common.CSN
	for i := 0; i < 200; i++ {
		ts, err := c.CurrentReadCSN()
		if err != nil {
			t.Fatal(err)
		}
		if ts < prev {
			t.Fatalf("read timestamp regressed: %d after %d", ts, prev)
		}
		prev = ts
	}
	<-done
}

func TestConcurrentBeginCommit(t *testing.T) {
	_, cs := harness(t, 4, Config{TITSlots: 256})
	var wg sync.WaitGroup
	for n := range cs {
		wg.Add(1)
		go func(c *Client, base int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g, err := c.Begin(common.TrxID(base*1000 + i))
				if err != nil {
					t.Error(err)
					return
				}
				cts, err := c.NextCommitCSN()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Commit(g, cts); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					if _, err := c.ReportMinView(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(cs[n], n)
	}
	wg.Wait()
}

func TestGetTrxCTSCache(t *testing.T) {
	fabric := rdma.NewFabric(rdma.Latency{})
	NewServer(fabric.Register(common.PMFSNode), fabric)
	c1 := NewClient(fabric.Register(1), fabric, Config{CTSCacheSize: 16})
	c2 := NewClient(fabric.Register(2), fabric, Config{CTSCacheSize: 16})
	g, _ := c1.Begin(1)
	c1.Commit(g, 33)
	if _, err := c2.GetTrxCTS(g); err != nil {
		t.Fatal(err)
	}
	before := fabric.Stats().Snapshot().Reads
	for i := 0; i < 10; i++ {
		cts, err := c2.GetTrxCTS(g)
		if err != nil || cts != 33 {
			t.Fatalf("cts=%d err=%v", cts, err)
		}
	}
	after := fabric.Stats().Snapshot().Reads
	if after != before {
		t.Fatalf("cached lookups still issued %d fabric reads", after-before)
	}
}

func TestRecoveryFenceSemantics(t *testing.T) {
	fabric := rdma.NewFabric(rdma.Latency{})
	NewServer(fabric.Register(common.PMFSNode), fabric)
	c1 := NewClient(fabric.Register(1), fabric, Config{CTSCacheSize: -1})
	c2 := NewClient(fabric.Register(2), fabric, Config{CTSCacheSize: -1})

	// A gtrx that never existed on node 1 (simulates a pre-crash id whose
	// slot was lost with the node's memory).
	ghost := common.GTrxID{Node: 1, Trx: 12345, Slot: 3, Version: 9}

	// Fence down: mismatch means recycled => visible to all.
	cts, err := c2.GetTrxCTS(ghost)
	if err != nil || cts != common.CSNMin {
		t.Fatalf("fence down: cts=%d err=%v, want CSNMin", cts, err)
	}
	// Fence up: unknown ids must be treated as still active.
	c1.SetRecovering(true)
	cts, err = c2.GetTrxCTS(ghost)
	if err != nil || cts != common.CSNMax {
		t.Fatalf("fence up: cts=%d err=%v, want CSNMax", cts, err)
	}
	// SetRefFlag on a fenced ghost reports "not flagged" (caller retries).
	if ok, err := c2.SetRefFlag(ghost); err != nil || ok {
		t.Fatalf("fenced SetRefFlag = %v, %v", ok, err)
	}
	c1.SetRecovering(false)
	cts, _ = c2.GetTrxCTS(ghost)
	if cts != common.CSNMin {
		t.Fatalf("fence lowered: cts=%d, want CSNMin", cts)
	}
}

func TestSlotTrxMismatchIsRecycled(t *testing.T) {
	// A slot occupied by a DIFFERENT transaction (same slot id, different
	// trx id) must read as recycled, even if versions collide.
	fabric := rdma.NewFabric(rdma.Latency{})
	NewServer(fabric.Register(common.PMFSNode), fabric)
	c := NewClient(fabric.Register(1), fabric, Config{TITSlots: 1, CTSCacheSize: -1})
	g1, err := c.Begin(100)
	if err != nil {
		t.Fatal(err)
	}
	stale := common.GTrxID{Node: 1, Trx: 42, Slot: g1.Slot, Version: g1.Version}
	cts, err := c.GetTrxCTS(stale)
	if err != nil || cts != common.CSNMin {
		t.Fatalf("trx-mismatched slot cts=%d err=%v, want CSNMin", cts, err)
	}
	// The real occupant still reads as active.
	if cts, _ := c.GetTrxCTS(g1); cts != common.CSNMax {
		t.Fatalf("occupant cts=%d, want CSNMax", cts)
	}
}

func TestBeginCommitRecycleQuick(t *testing.T) {
	fabric := rdma.NewFabric(rdma.Latency{})
	srv := NewServer(fabric.Register(common.PMFSNode), fabric)
	c := NewClient(fabric.Register(1), fabric, Config{TITSlots: 8, CTSCacheSize: -1})
	_ = srv
	f := func(ops []uint8) bool {
		live := map[common.TrxID]common.GTrxID{}
		next := common.TrxID(1000)
		for _, op := range ops {
			switch op % 3 {
			case 0: // begin
				g, err := c.Begin(next)
				if err != nil {
					// Full table is legal; recycle and move on.
					if _, rerr := c.ReportMinView(); rerr != nil {
						return false
					}
					continue
				}
				live[next] = g
				next++
			case 1: // commit one
				for id, g := range live {
					cts, err := c.NextCommitCSN()
					if err != nil {
						return false
					}
					if _, err := c.Commit(g, cts); err != nil {
						return false
					}
					delete(live, id)
					break
				}
			case 2: // recycle
				if _, err := c.ReportMinView(); err != nil {
					return false
				}
			}
			// Invariant: every live transaction still reads as active.
			for _, g := range live {
				cts, err := c.GetTrxCTS(g)
				if err != nil || cts != common.CSNMax {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
