// Package membership implements lease-based failure detection with
// monotonically increasing cluster epochs (the self-healing layer the
// paper's recovery story assumes but leaves to the surrounding system).
//
// PMFS hosts a membership table in a fabric-registered memory region: a
// cluster epoch word plus one slot per node {incarnation epoch, heartbeat
// sequence, state}. Every node runs an Agent that
//
//   - renews its lease by bumping its heartbeat word with a one-sided RDMA
//     write (cheap, no server CPU), and
//   - watches every peer's heartbeat with one-sided reads; a heartbeat that
//     stands still longer than the lease timeout makes the peer a suspect.
//
// A survivor evicts a suspect through the membership service: the table
// re-checks the heartbeat (a renewal that raced the suspicion refuses the
// eviction — a false suspicion, counted), bumps the cluster epoch, and
// fences the suspect. Exactly one reporter wins; the winner drives takeover.
// A fenced node's slot refuses Join until takeover completes, after which
// the node may rejoin with a fresh incarnation epoch.
//
// The incarnation epoch is the fencing token: nodes stamp it on every
// fusion-service request, and the Gate rejects stamps that no longer name a
// live incarnation with common.ErrStaleEpoch, so an evicted-but-still-
// running zombie cannot mutate shared state after the survivors moved on.
package membership

import (
	"fmt"
	"sync"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
	"polardbmp/internal/rdma"
	"polardbmp/internal/wire"
)

const (
	// Region is the PMFS memory region holding the membership table.
	Region = "pmfs.members"
	// Service is the PMFS RPC service for join/evict (the two transitions
	// that must serialize against each other; renewals stay one-sided).
	Service = "membership"

	// MaxNodes bounds the table (node IDs 1..MaxNodes).
	MaxNodes = 256

	hdrSize  = 8 // cluster epoch
	slotSize = 24
	offEpoch = 0 // slot-relative: incarnation epoch
	offHB    = 8 // slot-relative: heartbeat sequence
	offState = 16
)

// RegionSize is the byte size of the membership region.
const RegionSize = hdrSize + MaxNodes*slotSize

// SlotOff returns the region offset of node's slot.
func SlotOff(node common.NodeID) int { return hdrSize + (int(node)-1)*slotSize }

// HBOff returns the region offset of node's heartbeat word (the word an
// Agent renews with one-sided writes).
func HBOff(node common.NodeID) int { return SlotOff(node) + offHB }

// Node lifecycle states stored in a slot's state word. Values are part of
// the region layout: append only, never renumber.
const (
	StateFree     uint64 = iota // slot never used (or released)
	StateLive                   // holding a lease
	StateFenced                 // evicted; takeover in progress
	StateDown                   // takeover complete; may rejoin
	StateDraining               // graceful drain in progress; lease still valid
	StateDrained                // drain complete; slot reusable
	StateJoining                // slot reserved by Alloc; Join pending
)

// StateName returns a state word's human-readable name.
func StateName(s uint64) string {
	switch s {
	case StateFree:
		return "free"
	case StateLive:
		return "live"
	case StateFenced:
		return "fenced"
	case StateDown:
		return "down"
	case StateDraining:
		return "draining"
	case StateDrained:
		return "drained"
	case StateJoining:
		return "joining"
	}
	return "?"
}

// ErrUnknownNode is the typed bounds error: the node id is outside 1..MaxNodes,
// or (from Alloc) the table has no reusable slot left. It aliases the shared
// sentinel so errors.Is matches across packages and across the wire.
var ErrUnknownNode = common.ErrUnknownNode

// CheckNode is the one bounds rule for the table: node ids run 1..MaxNodes.
// Every Table and RemoteView path funnels through it so out-of-range ids are
// answered uniformly with the typed ErrUnknownNode (historically one path
// built an ad-hoc error and the boolean paths failed silently).
func CheckNode(node common.NodeID) error {
	if node < 1 || node > MaxNodes {
		return fmt.Errorf("membership: node %d: %w", node, ErrUnknownNode)
	}
	return nil
}

// Membership service ops. Every request starts [op u8][node u16].
const (
	opJoin    = 1 // [op][node] -> [epoch u64][hb u64]
	opEvict   = 2 // [op][reporter][suspect u16][observedHB u64][fromEpoch u64] -> [won u8][epoch u64]
	opDrain   = 3 // [op][node] -> [epoch u64]
	opDrained = 4 // [op][node] -> [epoch u64]
)

// Table is the PMFS-side membership state. The fabric region is the
// observable truth for heartbeats (agents write them directly); the Table
// serializes state and epoch transitions and mirrors them into the region
// so detectors can watch everything with a single one-sided read.
type Table struct {
	reg *rdma.Region

	mu    sync.Mutex
	epoch common.Epoch
	state [MaxNodes + 1]uint64
	inc   [MaxNodes + 1]common.Epoch

	// EpochBumps counts evictions won (each bumps the cluster epoch).
	EpochBumps metrics.Counter
	// FalseSuspicions counts evictions refused because the suspect's
	// heartbeat advanced past the reporter's observation.
	FalseSuspicions metrics.Counter
}

// NewTable registers the membership region and service on the PMFS endpoint.
func NewTable(ep *rdma.Endpoint) *Table {
	t := &Table{reg: ep.RegisterRegion(Region, RegionSize)}
	ep.Serve(Service, t.handle)
	return t
}

func (t *Table) handle(req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	op, node := rd.U8(), common.NodeID(rd.U16())
	var suspect common.NodeID
	var hb uint64
	var from common.Epoch
	if op == opEvict {
		suspect, hb, from = common.NodeID(rd.U16()), rd.U64(), common.Epoch(rd.U64())
	}
	if op < opJoin || op > opDrained {
		return nil, fmt.Errorf("membership: op %d: %w", op, common.ErrNoService)
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("membership: %w", err)
	}
	var epoch common.Epoch
	var err error
	switch op {
	case opJoin:
		epoch, hb, err = t.Join(node)
		if err != nil {
			return nil, err
		}
		return wire.AppendU64(wire.AppendU64(nil, uint64(epoch)), hb), nil
	case opEvict:
		won, epoch := t.Evict(node, suspect, hb, from)
		resp := []byte{0}
		if won {
			resp[0] = 1
		}
		return wire.AppendU64(resp, uint64(epoch)), nil
	case opDrain:
		epoch, err = t.Drain(node)
	default: // opDrained
		epoch, err = t.Drained(node)
	}
	if err != nil {
		return nil, err
	}
	return wire.AppendU64(nil, uint64(epoch)), nil
}

// Join admits node (fresh or restarting) under a new incarnation epoch and
// returns the epoch plus the node's current heartbeat sequence. Joining is
// refused while the slot is fenced: a survivor is still replaying the
// previous incarnation's state, and two incarnations must never overlap. It
// is likewise refused mid-drain — a drain only moves forward.
func (t *Table) Join(node common.NodeID) (common.Epoch, uint64, error) {
	if err := CheckNode(node); err != nil {
		return 0, 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state[node] == StateFenced {
		return 0, 0, fmt.Errorf("membership: node %d: takeover in progress: %w", node, common.ErrFenced)
	}
	if t.state[node] == StateDraining {
		return 0, 0, fmt.Errorf("membership: node %d: %w", node, common.ErrDraining)
	}
	t.epoch++
	hb, _ := t.reg.LocalRead64(HBOff(node))
	hb++ // a join is itself proof of life; stale evictions must lose
	t.state[node] = StateLive
	t.inc[node] = t.epoch
	t.writeLocked(node, hb)
	return t.epoch, hb, nil
}

// Alloc reserves the lowest reusable slot — one that is free or whose
// previous tenant drained cleanly — and moves it to Joining so concurrent
// allocations cannot hand out the same id. It returns ErrUnknownNode when
// every slot is taken. Slots of crashed nodes (Fenced/Down) are NOT reused:
// a restart of the same identity may still claim them, and their unstamped
// versions resolve through the recovered-peer fate rule keyed by that id;
// an operator frees them explicitly with Free.
func (t *Table) Alloc() (common.NodeID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for n := common.NodeID(1); n <= MaxNodes; n++ {
		if t.state[n] == StateFree || t.state[n] == StateDrained {
			t.state[n] = StateJoining
			t.inc[n] = 0
			hb, _ := t.reg.LocalRead64(HBOff(n))
			t.writeLocked(n, hb)
			return n, nil
		}
	}
	return 0, fmt.Errorf("membership: alloc: table full: %w", ErrUnknownNode)
}

// Free releases a slot whose tenant is gone for good — drained, recovered
// after a crash (Down), or a reservation that never joined — back to Free so
// Alloc can reuse it. Freeing a live, draining, or fenced slot is refused.
func (t *Table) Free(node common.NodeID) error {
	if err := CheckNode(node); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.state[node] {
	case StateDrained, StateDown, StateJoining:
		t.state[node] = StateFree
		t.inc[node] = 0
		hb, _ := t.reg.LocalRead64(HBOff(node))
		t.writeLocked(node, hb)
		return nil
	case StateFree:
		return nil // idempotent
	}
	return fmt.Errorf("membership: free node %d: state %s", node, StateName(t.state[node]))
}

// Drain moves a live node to Draining and bumps the cluster epoch (a drain
// is a topology change peers must observe). The incarnation stays valid:
// the Gate keeps admitting the draining node's stamped requests so in-flight
// transactions finish, and agents keep renewing the lease — a draining node
// is alive, just refusing new work.
func (t *Table) Drain(node common.NodeID) (common.Epoch, error) {
	if err := CheckNode(node); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state[node] == StateDraining {
		return t.epoch, nil // idempotent: a retried drain must not error
	}
	if t.state[node] != StateLive {
		return 0, fmt.Errorf("membership: drain node %d: state %s", node, StateName(t.state[node]))
	}
	t.epoch++
	t.state[node] = StateDraining
	hb, _ := t.reg.LocalRead64(HBOff(node))
	t.writeLocked(node, hb)
	return t.epoch, nil
}

// Drained completes a graceful drain: the node finished its in-flight
// transactions, flushed its dirty frames, and released its locks, so the
// incarnation is fenced cleanly (the Gate stops admitting it) and the slot
// becomes reusable by Alloc — with zero takeover and zero redo replay, in
// contrast to Evict.
func (t *Table) Drained(node common.NodeID) (common.Epoch, error) {
	if err := CheckNode(node); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state[node] == StateDrained {
		return t.epoch, nil // idempotent
	}
	if t.state[node] != StateDraining {
		return 0, fmt.Errorf("membership: drained node %d: state %s", node, StateName(t.state[node]))
	}
	t.epoch++
	t.state[node] = StateDrained
	hb, _ := t.reg.LocalRead64(HBOff(node))
	t.writeLocked(node, hb)
	return t.epoch, nil
}

// Evict fences suspect on reporter's behalf. It wins only if the cluster
// epoch still matches the reporter's view and the suspect's heartbeat has
// not advanced past the reporter's observation; exactly one concurrent
// reporter can win. The winner receives the new cluster epoch and owns the
// takeover.
func (t *Table) Evict(reporter, suspect common.NodeID, observedHB uint64, from common.Epoch) (bool, common.Epoch) {
	if CheckNode(suspect) != nil || reporter == suspect {
		return false, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state[suspect] != StateLive || t.epoch != from {
		// Already fenced/down (someone else won) or the membership moved
		// under the reporter; not a false suspicion, just a lost race.
		return false, t.epoch
	}
	hb, _ := t.reg.LocalRead64(HBOff(suspect))
	if hb != observedHB {
		t.FalseSuspicions.Inc()
		return false, t.epoch
	}
	t.epoch++
	t.state[suspect] = StateFenced
	t.EpochBumps.Inc()
	t.writeLocked(suspect, hb)
	return true, t.epoch
}

// MarkRecovered moves a fenced node to Down: takeover finished, the node's
// durable effects are resolved, and a restart may rejoin.
func (t *Table) MarkRecovered(node common.NodeID) {
	if CheckNode(node) != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state[node] != StateFenced {
		return
	}
	t.state[node] = StateDown
	hb, _ := t.reg.LocalRead64(HBOff(node))
	t.writeLocked(node, hb)
}

// Recovered reports whether node is gone and its effects are fully
// resolved — takeover completed after a crash (Down) or a graceful drain
// finished (Drained) — the signal that lets readers resolve the node's
// unstamped-but-committed versions as visible (CSNMin) instead of treating
// them as active. (For a reused slot the new tenant's published spec-CTS
// floor covers the old incarnation's ids, so the fate rule hands over
// seamlessly.)
func (t *Table) Recovered(node common.NodeID) bool {
	if CheckNode(node) != nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state[node] == StateDown || t.state[node] == StateDrained
}

// State returns node's current lifecycle state word.
func (t *Table) State(node common.NodeID) uint64 {
	if CheckNode(node) != nil {
		return StateFree
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state[node]
}

// CurrentEpoch returns the cluster epoch.
func (t *Table) CurrentEpoch() common.Epoch {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// SlotInfo is one occupied slot in a Snapshot.
type SlotInfo struct {
	Node  common.NodeID
	State uint64
	Inc   common.Epoch
}

// Snapshot returns the cluster epoch and every non-free slot, in id order —
// the raw material for a topology view.
func (t *Table) Snapshot() (common.Epoch, []SlotInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SlotInfo
	for n := common.NodeID(1); n <= MaxNodes; n++ {
		if t.state[n] == StateFree {
			continue
		}
		out = append(out, SlotInfo{Node: n, State: t.state[n], Inc: t.inc[n]})
	}
	return t.epoch, out
}

// Reset clears every slot (full-cluster crash). The cluster epoch is
// retained so it stays monotonic across the restart.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for n := common.NodeID(1); n <= MaxNodes; n++ {
		if t.state[n] == StateFree {
			continue
		}
		t.state[n] = StateFree
		t.inc[n] = 0
		t.writeLocked(n, 0)
	}
}

// Gate returns the epoch gate fusion servers consult: a stamped request is
// admitted only while its (node, incarnation epoch) names the live
// incarnation. A draining incarnation still passes — the whole point of a
// graceful drain is that in-flight transactions commit normally; the gate
// closes only at Drained. Epoch 0 marks system-internal or pre-membership
// requests and always passes.
func (t *Table) Gate() common.EpochGate {
	return func(node common.NodeID, e common.Epoch) error {
		if e == 0 {
			return nil
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		if node >= 1 && node <= MaxNodes && t.inc[node] == e &&
			(t.state[node] == StateLive || t.state[node] == StateDraining) {
			return nil
		}
		return fmt.Errorf("membership: node %d epoch %d fenced: %w", node, e, common.ErrStaleEpoch)
	}
}

// Remirror republishes the table's serialized state — cluster epoch,
// per-slot incarnation epochs and lifecycle states — into the fabric region.
// Heartbeat words are left alone: agents own them through replicated
// one-sided writes. The pmfs replication tier calls this after a replica
// failover, because Join/Evict mutate Go state and mirror it with local
// writes, which bypass the replicated fabric path; a promoted replica's
// region must be re-seeded from what the Table actually serialized.
func (t *Table) Remirror() {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.reg.LocalWrite64(0, uint64(t.epoch))
	for n := common.NodeID(1); n <= MaxNodes; n++ {
		if t.state[n] == StateFree && t.inc[n] == 0 {
			continue
		}
		off := SlotOff(n)
		_ = t.reg.LocalWrite64(off+offEpoch, uint64(t.inc[n]))
		_ = t.reg.LocalWrite64(off+offState, t.state[n])
	}
}

// writeLocked mirrors node's slot (and the cluster epoch) into the region.
func (t *Table) writeLocked(node common.NodeID, hb uint64) {
	_ = t.reg.LocalWrite64(0, uint64(t.epoch))
	off := SlotOff(node)
	_ = t.reg.LocalWrite64(off+offEpoch, uint64(t.inc[node]))
	_ = t.reg.LocalWrite64(off+offHB, hb)
	_ = t.reg.LocalWrite64(off+offState, t.state[node])
}
