package membership

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
)

func newTestTable(t *testing.T) (*rdma.Fabric, *Table) {
	t.Helper()
	fab := rdma.NewFabric(rdma.Latency{})
	return fab, NewTable(fab.Register(common.PMFSNode))
}

func TestJoinEvictLifecycle(t *testing.T) {
	_, tbl := newTestTable(t)

	e1, _, err := tbl.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	e2, hb2, err := tbl.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatalf("epochs not monotonic: %d then %d", e1, e2)
	}
	if tbl.State(1) != StateLive || tbl.State(2) != StateLive {
		t.Fatalf("states = %s/%s, want live/live",
			StateName(tbl.State(1)), StateName(tbl.State(2)))
	}

	// A stale heartbeat observation is a false suspicion: the suspect
	// renewed past it, so the eviction must be refused.
	if won, _ := tbl.Evict(1, 2, hb2-1, tbl.CurrentEpoch()); won {
		t.Fatal("eviction won with a stale heartbeat observation")
	}
	if tbl.FalseSuspicions.Load() != 1 {
		t.Fatalf("FalseSuspicions = %d, want 1", tbl.FalseSuspicions.Load())
	}

	// An eviction from an outdated epoch view is a lost race, not a false
	// suspicion.
	if won, _ := tbl.Evict(1, 2, hb2, tbl.CurrentEpoch()-1); won {
		t.Fatal("eviction won from a stale epoch view")
	}
	if tbl.FalseSuspicions.Load() != 1 {
		t.Fatalf("FalseSuspicions = %d after lost race, want 1", tbl.FalseSuspicions.Load())
	}

	// The accurate observation wins, bumps the epoch, and fences the slot.
	before := tbl.CurrentEpoch()
	won, after := tbl.Evict(1, 2, hb2, before)
	if !won || after != before+1 {
		t.Fatalf("evict = (%v, %d), want (true, %d)", won, after, before+1)
	}
	if tbl.State(2) != StateFenced {
		t.Fatalf("state = %s, want fenced", StateName(tbl.State(2)))
	}
	if tbl.EpochBumps.Load() != 1 {
		t.Fatalf("EpochBumps = %d, want 1", tbl.EpochBumps.Load())
	}

	// Only one reporter wins; the loser sees the slot already fenced.
	if won, _ := tbl.Evict(1, 2, hb2, after); won {
		t.Fatal("second eviction of a fenced slot won")
	}

	// Fenced slots refuse Join until the takeover finishes.
	if _, _, err := tbl.Join(2); !errors.Is(err, common.ErrFenced) {
		t.Fatalf("join while fenced = %v, want ErrFenced", err)
	}
	tbl.MarkRecovered(2)
	if !tbl.Recovered(2) {
		t.Fatal("Recovered(2) = false after MarkRecovered")
	}
	e2b, _, err := tbl.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	if e2b <= after {
		t.Fatalf("rejoin epoch %d not past eviction epoch %d", e2b, after)
	}
	if tbl.Recovered(2) {
		t.Fatal("Recovered(2) still true after rejoin")
	}
}

func TestGateFencesStaleIncarnations(t *testing.T) {
	_, tbl := newTestTable(t)
	gate := tbl.Gate()

	e, hb, err := tbl.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate(1, e); err != nil {
		t.Fatalf("gate rejected the live incarnation: %v", err)
	}
	// Epoch 0 marks system-internal requests and always passes.
	if err := gate(1, 0); err != nil {
		t.Fatalf("gate rejected epoch 0: %v", err)
	}
	if err := gate(1, e+1); !errors.Is(err, common.ErrStaleEpoch) {
		t.Fatalf("gate(wrong epoch) = %v, want ErrStaleEpoch", err)
	}
	if err := gate(2, e); !errors.Is(err, common.ErrStaleEpoch) {
		t.Fatalf("gate(never joined) = %v, want ErrStaleEpoch", err)
	}

	if won, _ := tbl.Evict(2, 1, hb, tbl.CurrentEpoch()); !won {
		t.Fatal("eviction lost")
	}
	if err := gate(1, e); !errors.Is(err, common.ErrStaleEpoch) {
		t.Fatalf("gate(fenced incarnation) = %v, want ErrStaleEpoch", err)
	}
}

func TestResetKeepsEpochMonotonic(t *testing.T) {
	_, tbl := newTestTable(t)
	tbl.Join(1)
	e2, _, _ := tbl.Join(2)
	tbl.Reset()
	if tbl.State(1) != StateFree || tbl.State(2) != StateFree {
		t.Fatal("Reset left non-free slots")
	}
	e1b, _, err := tbl.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	if e1b <= e2 {
		t.Fatalf("epoch %d after reset not past pre-reset epoch %d", e1b, e2)
	}
}

// TestAgentDetectsSilentPeer runs two live agents against a table and fail
// stops one by halting its heartbeats: the survivor must suspect it within
// the lease timeout, win the eviction, and fire the takeover callback; the
// dead agent's own lease check must then report the stale epoch.
func TestAgentDetectsSilentPeer(t *testing.T) {
	fab, tbl := newTestTable(t)
	cfg := Config{RenewInterval: 2 * time.Millisecond, LeaseTimeout: 20 * time.Millisecond}

	a1 := NewAgent(1, common.PMFSNode, fab, nil, cfg)
	a2 := NewAgent(2, common.PMFSNode, fab, nil, cfg)
	var dead atomic.Uint64
	a1.SetOnTakeover(func(n common.NodeID, _ common.Epoch) { dead.Store(uint64(n)) })
	for _, a := range []*Agent{a1, a2} {
		if err := a.Join(); err != nil {
			t.Fatal(err)
		}
		a.Start()
	}
	defer a1.Stop()

	// Let both leases establish, then silence agent 2.
	time.Sleep(4 * cfg.RenewInterval)
	a2.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for dead.Load() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if dead.Load() != 2 {
		t.Fatalf("survivor never evicted the silent peer (state=%s)",
			StateName(tbl.State(2)))
	}
	if tbl.State(2) != StateFenced {
		t.Fatalf("state = %s, want fenced", StateName(tbl.State(2)))
	}
	if a1.Suspicions.Load() == 0 {
		t.Fatal("survivor won an eviction without recording a suspicion")
	}
	// The zombie's pre-commit self-check observes its own eviction.
	if err := a2.CheckValid(); !errors.Is(err, common.ErrStaleEpoch) {
		t.Fatalf("evicted agent CheckValid = %v, want ErrStaleEpoch", err)
	}
	if !a2.Evicted() {
		t.Fatal("CheckValid did not latch the evicted flag")
	}
}

// TestEvictedAgentLeavesOwnSlotAlone: a still-running agent whose slot was
// fenced (a zombie) must not run the takeover callback on itself — the
// pipeline's STONITH would stop the agent from inside its own detector. The
// fenced-slot sweep is for the survivors.
func TestEvictedAgentLeavesOwnSlotAlone(t *testing.T) {
	fab, tbl := newTestTable(t)
	cfg := Config{RenewInterval: 2 * time.Millisecond, LeaseTimeout: 20 * time.Millisecond}
	a2 := NewAgent(2, common.PMFSNode, fab, nil, cfg)
	var self atomic.Bool
	a2.SetOnTakeover(func(n common.NodeID, _ common.Epoch) {
		if n == 2 {
			self.Store(true)
		}
	})
	if err := a2.Join(); err != nil {
		t.Fatal(err)
	}
	a2.Start()
	defer a2.Stop()
	conn := fab.From(1)
	won := false
	for i := 0; i < 10000 && !won; i++ { // the heartbeat may move under us: retry
		var slot [24]byte
		if err := conn.Read(common.PMFSNode, Region, SlotOff(2), slot[:]); err != nil {
			t.Fatal(err)
		}
		won, _ = tbl.Evict(1, 2, binary.LittleEndian.Uint64(slot[8:16]), tbl.CurrentEpoch())
	}
	if !won {
		t.Fatal("could not win the eviction")
	}
	time.Sleep(3 * cfg.LeaseTimeout) // several sweep cooldowns
	if self.Load() {
		t.Fatal("evicted agent ran the takeover callback on its own slot")
	}
	if tbl.State(2) != StateFenced {
		t.Fatalf("state = %s, want fenced", StateName(tbl.State(2)))
	}
}

// TestDrainLifecycle walks a slot through the graceful-drain state machine
// and checks the epoch, gate, and reuse semantics at each step.
func TestDrainLifecycle(t *testing.T) {
	_, tbl := newTestTable(t)

	id, err := tbl.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first alloc = %d, want 1", id)
	}
	if tbl.State(id) != StateJoining {
		t.Fatalf("state after alloc = %s, want joining", StateName(tbl.State(id)))
	}
	inc, _, err := tbl.Join(id)
	if err != nil {
		t.Fatal(err)
	}
	gate := tbl.Gate()

	// Live -> Draining bumps the epoch; the gate still admits the
	// incarnation (in-flight commits must finish during a drain).
	e0 := tbl.CurrentEpoch()
	e1, err := tbl.Drain(id)
	if err != nil {
		t.Fatal(err)
	}
	if e1 <= e0 {
		t.Fatalf("drain epoch %d did not pass %d", e1, e0)
	}
	if tbl.State(id) != StateDraining {
		t.Fatalf("state = %s, want draining", StateName(tbl.State(id)))
	}
	if err := gate(id, inc); err != nil {
		t.Fatalf("gate refused a draining incarnation: %v", err)
	}
	// Idempotent: a retried drain neither fails nor bumps again.
	if e1b, err := tbl.Drain(id); err != nil || e1b != e1 {
		t.Fatalf("retried drain = (%d, %v), want (%d, nil)", e1b, err, e1)
	}
	// A drained slot refuses rejoin mid-drain.
	if _, _, err := tbl.Join(id); !errors.Is(err, common.ErrDraining) {
		t.Fatalf("join mid-drain: %v, want ErrDraining", err)
	}

	// Draining -> Drained closes the gate and frees the slot for reuse.
	e2, err := tbl.Drained(id)
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatalf("drained epoch %d did not pass %d", e2, e1)
	}
	if err := gate(id, inc); err == nil {
		t.Fatal("gate admitted a drained incarnation")
	}
	if !tbl.Recovered(id) {
		t.Fatal("a drained node must resolve as recovered (fate rule)")
	}
	// Alloc reuses the lowest drained slot.
	id2, err := tbl.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("alloc after drain = %d, want reuse of %d", id2, id)
	}
}

// TestAllocSkipsCrashedSlots: a fenced or down slot belongs to recovery (a
// restart of the same identity may claim it); Alloc must never hand it out.
func TestAllocSkipsCrashedSlots(t *testing.T) {
	_, tbl := newTestTable(t)
	_, hb, err := tbl.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.Join(2); err != nil {
		t.Fatal(err)
	}
	if won, _ := tbl.Evict(2, 1, hb, tbl.CurrentEpoch()); !won {
		t.Fatal("eviction refused")
	}
	if tbl.State(1) != StateFenced {
		t.Fatalf("state = %s, want fenced", StateName(tbl.State(1)))
	}
	id, err := tbl.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id == 1 {
		t.Fatal("alloc handed out a fenced slot")
	}
	// Post-recovery the slot is Down: still not allocatable, but freeable.
	tbl.MarkRecovered(1)
	if id, _ := tbl.Alloc(); id == 1 {
		t.Fatal("alloc handed out a down slot")
	}
	if err := tbl.Free(1); err != nil {
		t.Fatal(err)
	}
	if tbl.State(1) != StateFree {
		t.Fatalf("state after free = %s, want free", StateName(tbl.State(1)))
	}
}

// TestBoundsUnifyOnErrUnknownNode: every Table entry point classifies an
// out-of-range node id with the one shared sentinel.
func TestBoundsUnifyOnErrUnknownNode(t *testing.T) {
	_, tbl := newTestTable(t)
	for _, bad := range []common.NodeID{0, MaxNodes + 1} {
		if _, _, err := tbl.Join(bad); !errors.Is(err, common.ErrUnknownNode) {
			t.Fatalf("Join(%d): %v, want ErrUnknownNode", bad, err)
		}
		if _, err := tbl.Drain(bad); !errors.Is(err, common.ErrUnknownNode) {
			t.Fatalf("Drain(%d): %v, want ErrUnknownNode", bad, err)
		}
		if _, err := tbl.Drained(bad); !errors.Is(err, common.ErrUnknownNode) {
			t.Fatalf("Drained(%d): %v, want ErrUnknownNode", bad, err)
		}
		if err := tbl.Free(bad); !errors.Is(err, common.ErrUnknownNode) {
			t.Fatalf("Free(%d): %v, want ErrUnknownNode", bad, err)
		}
		if tbl.State(bad) != StateFree || tbl.Recovered(bad) {
			t.Fatalf("State/Recovered(%d) leaked past the bounds check", bad)
		}
	}
}

// TestAllocFullTable: slot exhaustion is the same "no such node" class the
// callers already handle, not a new failure mode.
func TestAllocFullTable(t *testing.T) {
	_, tbl := newTestTable(t)
	for i := 0; i < MaxNodes; i++ {
		if _, err := tbl.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Alloc(); !errors.Is(err, common.ErrUnknownNode) {
		t.Fatalf("alloc on full table: %v, want ErrUnknownNode", err)
	}
}
