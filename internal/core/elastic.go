// Elastic topology: the online join/drain admin surface. AddNode
// (cluster.go) is the join half; this file holds the graceful-drain half and
// the Topology snapshot both halves are observed through.
//
// A graceful drain is the inverse of a crash: instead of fencing first and
// recovering after, the node stops admitting work, finishes what is in
// flight, hands every shared resource back in an orderly way, and only then
// fences its incarnation. Nothing is left for a survivor to take over — no
// redo to replay, no locks to break, no in-doubt transactions to resolve —
// so a drain costs the cluster zero recovery work and zero aborts.
package core

import (
	"encoding/json"
	"fmt"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/membership"
)

// NodeState is a topology-level node state, the external vocabulary over the
// membership table's slot states.
type NodeState string

const (
	// NodeActive: live and serving transactions.
	NodeActive NodeState = "active"
	// NodeJoining: slot reserved, node not yet serving.
	NodeJoining NodeState = "joining"
	// NodeDraining: refusing new transactions, finishing in-flight ones.
	NodeDraining NodeState = "draining"
	// NodeDrained: gracefully gone; the slot is reusable by a future join.
	NodeDrained NodeState = "drained"
	// NodeCrashed: fenced or down; recovery (not reuse) owns the slot.
	NodeCrashed NodeState = "crashed"
)

// NodeInfo is one node's row in a Topology snapshot.
type NodeInfo struct {
	ID          int       `json:"id"`
	State       NodeState `json:"state"`
	Incarnation uint64    `json:"incarnation"`
	// Sessions is the node's in-flight transaction count — known only for
	// nodes hosted by the answering process (zero elsewhere).
	Sessions int64 `json:"sessions"`
	// Hosted marks nodes running in this process.
	Hosted bool `json:"hosted,omitempty"`
}

// Topology is a point-in-time view of cluster membership. Epoch is the
// membership cluster epoch: it bumps on every join, eviction, and drain
// transition, so two snapshots with equal epochs describe the same
// topology and epochs observed over time are monotone.
type Topology struct {
	Epoch uint64     `json:"epoch"`
	Nodes []NodeInfo `json:"nodes"`
}

// nodeStateOf maps a membership slot state to the topology vocabulary.
func nodeStateOf(s uint64) NodeState {
	switch s {
	case membership.StateLive:
		return NodeActive
	case membership.StateJoining:
		return NodeJoining
	case membership.StateDraining:
		return NodeDraining
	case membership.StateDrained:
		return NodeDrained
	default: // Fenced, Down
		return NodeCrashed
	}
}

// Topology snapshots the cluster membership. On the seed the membership
// table answers directly; a satellite asks the seed and overlays the nodes
// it hosts itself. A node that was killed but not yet evicted still reports
// active — the lease table is the single source of truth, and until a
// detector fences the silence that is what the table honestly says.
func (c *Cluster) Topology() (Topology, error) {
	if c.members == nil {
		return c.topologyRemote()
	}
	epoch, slots := c.members.Snapshot()
	t := Topology{Epoch: uint64(epoch), Nodes: make([]NodeInfo, 0, len(slots))}
	for _, si := range slots {
		t.Nodes = append(t.Nodes, NodeInfo{
			ID:          int(si.Node),
			State:       nodeStateOf(si.State),
			Incarnation: uint64(si.Inc),
		})
	}
	c.overlayHosted(&t)
	return t, nil
}

// TopologyJSON returns the Topology snapshot marshaled for the wire and the
// daemons' HTTP endpoints.
func (c *Cluster) TopologyJSON() ([]byte, error) {
	t, err := c.Topology()
	if err != nil {
		return nil, err
	}
	return json.Marshal(t)
}

// overlayHosted fills the per-process fields of a topology snapshot: which
// nodes this process hosts and their in-flight session counts. A hosted
// node's local draining flag is also folded in, covering the instant between
// the flag flip and the table transition.
func (c *Cluster) overlayHosted(t *Topology) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range t.Nodes {
		ni := &t.Nodes[i]
		n := c.nodes[common.NodeID(ni.ID)]
		if n == nil {
			continue
		}
		ni.Hosted = true
		ni.Sessions = n.activeTx.Load()
		if ni.State == NodeActive && n.draining.Load() {
			ni.State = NodeDraining
		}
	}
}

// DrainNode gracefully removes node id from the cluster: it stops admitting
// new transactions, waits out the in-flight ones (bounded by drainTimeout,
// 30s), flushes every dirty page it owns, releases its lazily-retained page
// locks, makes its log durable, and fences its incarnation cleanly. No
// takeover runs and no redo is replayed — the slot it held becomes reusable
// by a future AddNode.
//
// Under load the invariant is: zero transactions abort for membership
// reasons. In-flight work admitted before the drain keeps committing
// (the drain's lease stays valid until the last one finished); work arriving
// after sees ErrDraining at Begin and routes to another primary.
//
// A process can only drain nodes it hosts (ErrNotHosted otherwise; drive the
// drain through the hosting daemon's admin API instead). If the in-flight
// work does not finish within that bound, DrainNode returns
// ErrDeadlineExceeded with the node left draining: admission stays closed
// and the drain may be retried.
func (c *Cluster) DrainNode(id common.NodeID) error {
	if !c.knownNode(id) {
		return fmt.Errorf("core: drain node %d: %w", id, ErrUnknownNode)
	}
	c.mu.Lock()
	n := c.nodes[id]
	c.mu.Unlock()
	if n == nil {
		if c.remote {
			return fmt.Errorf("core: drain node %d: %w", id, ErrNotHosted)
		}
		return fmt.Errorf("core: drain node %d: %w", id, common.ErrNodeDown)
	}

	// Close admission. The CAS is deliberately not a guard: a drain retried
	// after a timed-out drain finds the flag already set and proceeds.
	// Begin's handshake (tx.go) guarantees that once the flag is visible no
	// new transaction slips in: Begin increments activeTx before loading the
	// flag, we set the flag before loading activeTx, so a transaction our
	// load missed must have seen the flag and bowed out.
	n.draining.CompareAndSwap(false, true)
	if err := n.agent.StartDrain(); err != nil {
		return fmt.Errorf("core: drain node %d: %w", id, err)
	}

	// Wait out the in-flight transactions. Their commits keep working: a
	// draining incarnation still passes the epoch gate and the lease
	// self-check.
	deadline := time.Now().Add(drainTimeout)
	for n.activeTx.Load() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: drain node %d: %d transactions still in flight: %w",
				id, n.activeTx.Load(), common.ErrDeadlineExceeded)
		}
		time.Sleep(200 * time.Microsecond)
	}

	// Quiesced. Hand everything back while the incarnation is still valid.
	n.stopBackground()
	_, _ = n.tf.ReportMinView() // publish the final (empty) view
	if err := n.lbp.FlushAll(); err != nil {
		return fmt.Errorf("core: drain node %d: flush LBP: %w", id, err)
	}
	// Release the lazy-release PLock cache. With no active transactions
	// every reference count is zero, so one pass normally empties it; the
	// short retry loop covers a revoke racing the drain.
	for i := 0; n.pl.Retained() > 0; i++ {
		n.pl.ReleaseAll()
		if n.pl.Retained() == 0 {
			break
		}
		if i >= 50 {
			return fmt.Errorf("core: drain node %d: %d page locks still held",
				id, n.pl.Retained())
		}
		time.Sleep(time.Millisecond)
	}
	n.wal.Sync(n.wal.End())
	c.removeMinView(id)

	// Fence the incarnation cleanly: stop the lease loops, then move the
	// slot to Drained (epoch gate closes; the slot becomes allocatable).
	n.live.Store(false)
	n.agent.Stop()
	if err := n.agent.FinishDrain(); err != nil {
		return fmt.Errorf("core: drain node %d: %w", id, err)
	}

	// Server-side cleanup is orderly bookkeeping, not crash recovery: drop
	// the node from the lock tables. Everything it owned is
	// already flushed and released, so this is reclamation of empty
	// tracking state — MarkDead/LogCrashVolatile (the crash path) never run.
	if err := c.drainCleanup(id); err != nil {
		return fmt.Errorf("core: drain node %d: cleanup: %w", id, err)
	}

	n.teardown()

	c.mu.Lock()
	delete(c.nodes, id)
	c.mu.Unlock()
	c.refreshPmfsTracers()
	return nil
}

// drainCleanup drops a cleanly-drained node from the fusion servers' tracking
// structures: directly on the seed, via the seed's admin service from a
// satellite.
func (c *Cluster) drainCleanup(id common.NodeID) error {
	if !c.remote {
		c.lockSrv.DropNode(uint16(id))
		return nil
	}
	return c.drainCleanupRemote(id)
}

// RemoveNode takes node id out of the topology for good, freeing its
// membership slot. A live hosted node is gracefully drained first; a node
// already drained or down (post-recovery) has only its slot freed. Removing
// a node whose takeover is still running fails — the fence must clear
// (recovery finish) before the slot can be reused.
func (c *Cluster) RemoveNode(id common.NodeID) error {
	if !c.knownNode(id) {
		return fmt.Errorf("core: remove node %d: %w", id, ErrUnknownNode)
	}
	c.mu.Lock()
	hosted := c.nodes[id] != nil
	c.mu.Unlock()
	if hosted {
		if err := c.DrainNode(id); err != nil {
			return err
		}
	}
	if c.members != nil {
		if err := c.members.Free(id); err != nil {
			return fmt.Errorf("core: remove node %d: %w", id, err)
		}
		return nil
	}
	return c.freeNodeRemote(id)
}

// Draining reports whether the node has stopped admitting new transactions.
func (n *Node) Draining() bool { return n.draining.Load() }

// Remote reports whether this process is a satellite (hosts no PMFS).
func (c *Cluster) Remote() bool { return c.remote }
