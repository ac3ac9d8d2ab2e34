package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/membership"
	"polardbmp/internal/txfusion"
)

// TestDrainBasics walks one graceful drain end to end: admission closes, an
// in-flight transaction commits, the node's writes stay visible, no recovery
// machinery runs, and the freed slot is reused by the next join.
func TestDrainBasics(t *testing.T) {
	c, sp := testCluster(t, 3)
	for i := 0; i < 20; i++ {
		put(t, c.Node(2), sp, fmt.Sprintf("k%02d", i), "v")
	}

	// An in-flight transaction begun before the drain must commit while the
	// drain waits (its lease stays valid).
	victim := c.Node(2)
	tx, err := victim.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Upsert(sp, []byte("inflight"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.DrainNode(2) }()
	// Admission closes promptly even while the drain waits on us.
	begunAfter := time.Now().Add(2 * time.Second)
	for !victim.Draining() {
		if time.Now().After(begunAfter) {
			t.Fatal("draining flag never rose")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := victim.Begin(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Begin on draining node: %v, want ErrDraining", err)
	}
	mustCommit(t, tx)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The node is gone from the map; the table says drained; no takeover ran.
	if c.Node(2) != nil {
		t.Fatal("drained node still in the node map")
	}
	if st := c.Members().State(2); st != membership.StateDrained {
		t.Fatalf("slot state = %s, want drained", membership.StateName(st))
	}
	if got := c.Stats().Membership.Takeovers; got != 0 {
		t.Fatalf("takeovers = %d after a graceful drain, want 0", got)
	}

	// Everything it wrote — including the transaction that rode through the
	// drain — reads back from the survivors, with no redo replay anywhere.
	for _, ni := range []int{1, 3} {
		for i := 0; i < 20; i++ {
			if v, err := get(t, c.Node(ni), sp, fmt.Sprintf("k%02d", i)); err != nil || v != "v" {
				t.Fatalf("node %d: k%02d = %q, %v", ni, i, v, err)
			}
		}
		if v, err := get(t, c.Node(ni), sp, "inflight"); err != nil || v != "ok" {
			t.Fatalf("node %d: inflight = %q, %v", ni, v, err)
		}
	}

	// Idempotence / error surface.
	if err := c.DrainNode(2); !errors.Is(err, common.ErrNodeDown) {
		t.Fatalf("drain of drained node: %v, want ErrNodeDown", err)
	}
	if err := c.DrainNode(99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("drain of unknown node: %v, want ErrUnknownNode", err)
	}

	// The next join reuses the drained slot and serves immediately.
	n, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if n.ID() != 2 {
		t.Fatalf("rejoin allocated node %d, want reused slot 2", n.ID())
	}
	if v, err := get(t, n, sp, "inflight"); err != nil || v != "ok" {
		t.Fatalf("rejoined node: inflight = %q, %v", v, err)
	}
	put(t, n, sp, "after-rejoin", "ok")
}

// TestDrainWaitsForCommitInFlight: admitted means counted until Commit
// returns. A commit parked between its entry and its log append (its TSO
// grant is delayed on the fabric) must hold the drain off; releasing activeTx
// at Commit's entry let the drain tear the node down under it and the commit
// came back "node is down".
func TestDrainWaitsForCommitInFlight(t *testing.T) {
	c, sp := testCluster(t, 2)
	tx, err := c.Node(2).Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Upsert(sp, []byte("inflight"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	c.Fabric().SetInjector(func(op common.FaultOp) common.FaultDecision {
		if op.Class == common.FaultAtomic && op.Name == txfusion.RegionTSO && op.Src == 2 {
			return common.FaultDecision{Delay: 60 * time.Millisecond}
		}
		return common.FaultDecision{}
	})
	committed := make(chan error, 1)
	go func() { committed <- tx.Commit() }()
	time.Sleep(10 * time.Millisecond) // Commit is now inside the delayed grant
	if err := c.DrainNode(2); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-committed:
		if err != nil {
			t.Fatalf("commit admitted before the drain: %v", err)
		}
	default:
		t.Fatal("DrainNode returned while a commit was still in flight")
	}
	c.Fabric().SetInjector(nil)
	if v, err := get(t, c.Node(1), sp, "inflight"); err != nil || v != "ok" {
		t.Fatalf("node 1: inflight = %q, %v", v, err)
	}
}

// TestRemoveNodeFreesSlot: RemoveNode drains a live node and frees its slot;
// a crashed node is removable once recovery marked it down.
func TestRemoveNodeFreesSlot(t *testing.T) {
	c, sp := testCluster(t, 2)
	put(t, c.Node(2), sp, "a", "1")

	if err := c.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	if st := c.Members().State(2); st != membership.StateFree {
		t.Fatalf("slot state = %s, want free", membership.StateName(st))
	}
	if err := c.RemoveNode(99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("remove unknown: %v, want ErrUnknownNode", err)
	}
	if v, err := get(t, c.Node(1), sp, "a"); err != nil || v != "1" {
		t.Fatalf("survivor read: %q, %v", v, err)
	}
}

// TestTopologySnapshot checks the snapshot's states, epoch monotonicity, and
// session counts across a join/drain cycle.
func TestTopologySnapshot(t *testing.T) {
	c, sp := testCluster(t, 2)

	top, err := c.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(top.Nodes))
	}
	for _, ni := range top.Nodes {
		if ni.State != NodeActive || !ni.Hosted {
			t.Fatalf("node %d: state=%s hosted=%v, want active hosted", ni.ID, ni.State, ni.Hosted)
		}
		if ni.Incarnation == 0 {
			t.Fatalf("node %d: zero incarnation", ni.ID)
		}
	}

	// Sessions reflects in-flight transactions on hosted nodes.
	tx, err := c.Node(1).Begin()
	if err != nil {
		t.Fatal(err)
	}
	top2, _ := c.Topology()
	if top2.Nodes[0].Sessions != 1 {
		t.Fatalf("node 1 sessions = %d, want 1", top2.Nodes[0].Sessions)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	_ = sp

	// Drain: the epoch advances monotonically and the state lands on
	// drained.
	if err := c.DrainNode(2); err != nil {
		t.Fatal(err)
	}
	top3, _ := c.Topology()
	if top3.Epoch <= top.Epoch {
		t.Fatalf("epoch %d did not advance past %d over a drain", top3.Epoch, top.Epoch)
	}
	var found bool
	for _, ni := range top3.Nodes {
		if ni.ID == 2 {
			found = true
			if ni.State != NodeDrained || ni.Hosted {
				t.Fatalf("node 2: state=%s hosted=%v, want drained un-hosted", ni.State, ni.Hosted)
			}
		}
	}
	if !found {
		t.Fatal("drained node missing from topology")
	}
	if b, err := c.TopologyJSON(); err != nil || len(b) == 0 {
		t.Fatalf("TopologyJSON: %q, %v", b, err)
	}
}

// TestElasticDrainUnderLoad is the tentpole invariant: an 8-node cluster
// under continuous load loses and regains nodes through graceful drains, and
// not one transaction aborts for a membership reason. ErrDraining at Begin
// is admission control, not an abort — the load generator reroutes it.
// Topology epochs observed during the churn are strictly monotone.
func TestElasticDrainUnderLoad(t *testing.T) {
	c, sp := selfHealCluster(t, 8)

	const workers = 8
	var (
		stop            atomic.Bool
		membershipFails atomic.Int64
		commits         atomic.Int64
		rerouted        atomic.Int64
		wg              sync.WaitGroup
	)
	// pick returns a live node, preferring the workers' view of the world;
	// the orchestrator updates it around each drain.
	var pickMu sync.Mutex
	pool := c.Nodes()
	pick := func(i int) *Node {
		pickMu.Lock()
		defer pickMu.Unlock()
		return pool[i%len(pool)]
	}
	setPool := func(ns []*Node) {
		pickMu.Lock()
		pool = ns
		pickMu.Unlock()
	}
	isMembership := func(err error) bool {
		return errors.Is(err, common.ErrStaleEpoch) || errors.Is(err, common.ErrFenced) ||
			errors.Is(err, common.ErrNodeDown)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				n := pick(w + i)
				tx, err := n.Begin()
				if err != nil {
					if errors.Is(err, ErrDraining) {
						rerouted.Add(1)
						continue // route to another primary next round
					}
					if isMembership(err) {
						membershipFails.Add(1)
					}
					continue
				}
				key := fmt.Sprintf("w%d-%04d", w, i%256)
				err = tx.Upsert(sp, []byte(key), []byte("v"))
				if err == nil {
					err = tx.Commit()
				} else {
					_ = tx.Rollback()
				}
				switch {
				case err == nil:
					commits.Add(1)
				case isMembership(err):
					membershipFails.Add(1)
				case common.IsRetryable(err) || errors.Is(err, common.ErrDeadlock):
					// contention; next round retries
				default:
					t.Errorf("worker %d: unexpected error: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Churn: drain a node, verify it left, re-add it, three times over —
	// sampling the topology epoch at each step for monotonicity.
	lastEpoch := uint64(0)
	sampleEpoch := func() {
		top, err := c.Topology()
		if err != nil {
			t.Fatal(err)
		}
		if top.Epoch < lastEpoch {
			t.Fatalf("topology epoch went backwards: %d after %d", top.Epoch, lastEpoch)
		}
		lastEpoch = top.Epoch
	}
	sampleEpoch()
	for cycle := 0; cycle < 3; cycle++ {
		victim := common.NodeID(cycle%4 + 2)
		// Shrink the workers' pool to the others, then drain under whatever
		// stragglers still race in.
		var rest []*Node
		for _, n := range c.Nodes() {
			if n.ID() != victim {
				rest = append(rest, n)
			}
		}
		setPool(rest)
		if err := c.DrainNode(victim); err != nil {
			t.Fatalf("cycle %d: drain node %d: %v", cycle, victim, err)
		}
		sampleEpoch()
		n, err := c.AddNode()
		if err != nil {
			t.Fatalf("cycle %d: rejoin: %v", cycle, err)
		}
		if n.ID() != victim {
			t.Fatalf("cycle %d: rejoin allocated %d, want reused slot %d", cycle, n.ID(), victim)
		}
		setPool(c.Nodes())
		sampleEpoch()
		time.Sleep(20 * time.Millisecond) // let load resettle across 8 nodes
	}

	stop.Store(true)
	wg.Wait()

	if got := membershipFails.Load(); got != 0 {
		t.Fatalf("%d transactions aborted for membership reasons during graceful drains, want 0", got)
	}
	if commits.Load() == 0 {
		t.Fatal("load generator never committed")
	}
	st := c.Stats()
	if st.Membership.Takeovers != 0 {
		t.Fatalf("takeovers = %d, want 0 (drains must not look like crashes)", st.Membership.Takeovers)
	}
	top, err := c.Topology()
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, ni := range top.Nodes {
		if ni.State == NodeActive {
			active++
		}
	}
	if active != 8 {
		t.Fatalf("active nodes = %d after churn, want 8", active)
	}
	t.Logf("commits=%d rerouted=%d epochs<=%d", commits.Load(), rerouted.Load(), lastEpoch)
}

// TestElasticCyclesNoLeaks: twenty join/drain cycles neither leak goroutines
// nor consume fresh slots — the drained slot is reused every time, so the
// node-id watermark stays put.
func TestElasticCyclesNoLeaks(t *testing.T) {
	c, sp := testCluster(t, 2)
	put(t, c.Node(1), sp, "seed", "v")

	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		n, err := c.AddNode()
		if err != nil {
			t.Fatalf("cycle %d: add: %v", i, err)
		}
		if n.ID() != 3 {
			t.Fatalf("cycle %d: allocated node %d, want reused slot 3", i, n.ID())
		}
		put(t, n, sp, fmt.Sprintf("c%02d", i), "v")
		if err := c.DrainNode(n.ID()); err != nil {
			t.Fatalf("cycle %d: drain: %v", i, err)
		}
	}

	// Slots: exactly the two permanent nodes live, one drained slot parked.
	top, err := c.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Nodes) != 3 {
		t.Fatalf("topology rows = %d after 20 cycles, want 3", len(top.Nodes))
	}

	// Goroutines: drained nodes' background loops must all have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines = %d after 20 cycles, base %d\n%s",
			got, base, buf[:runtime.Stack(buf, true)])
	}

	// Everything every transient node wrote is still there.
	for i := 0; i < 20; i++ {
		if v, err := get(t, c.Node(1), sp, fmt.Sprintf("c%02d", i)); err != nil || v != "v" {
			t.Fatalf("c%02d = %q, %v", i, v, err)
		}
	}
}
