// Multi-process clusters: a seed process hosts the shared substrate (PMFS +
// store) and any number of satellite processes join over the socket fabric,
// each running a full primary node whose every cross-node interaction —
// fusion RPCs, one-sided region reads, membership leases, storage I/O —
// rides the wire to the seed. This is the paper's deployment shape: compute
// nodes are processes, PolarFusion and PolarStore are elsewhere.
package core

import (
	"encoding/json"
	"fmt"

	"polardbmp/internal/common"
	"polardbmp/internal/membership"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
	"polardbmp/internal/wire"
)

// ServiceCluster is the cluster-administration RPC service the seed serves
// on the PMFS endpoint. It covers the operations a satellite cannot do
// locally: allocating and freeing cluster-unique node slots, serializing
// tablespace creation against the seed's space directory lock, the
// server-side half of a graceful drain, and the cluster topology snapshot.
const ServiceCluster = "pmfs.cluster"

// Cluster admin opcodes (first payload byte). Append-only: satellites of
// mixed builds share the wire.
const (
	aopAllocNode    uint8 = 1 // [] -> [id u16]
	aopCreateSpace  uint8 = 2 // [name str] -> [space u32]
	aopDrainCleanup uint8 = 3 // [node u16] -> []
	aopTopology     uint8 = 4 // [] -> [topology json]
	aopFreeNode     uint8 = 5 // [node u16] -> []
	aopTxStatus     uint8 = 6 // [gtrx] -> [outcome u8, cts u64]
)

// handleAdmin serves ServiceCluster on the seed. Responses are
// [status][result] in the wire status encoding.
func (c *Cluster) handleAdmin(req []byte) ([]byte, error) {
	result, err := c.adminOp(req)
	return append(wire.AppendStatus(nil, err), result...), nil
}

func (c *Cluster) adminOp(req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	op := rd.U8()
	var name string
	var node uint16
	var g common.GTrxID
	switch op {
	case aopAllocNode, aopTopology:
	case aopCreateSpace:
		name = rd.Str()
	case aopDrainCleanup, aopFreeNode:
		node = rd.U16()
	case aopTxStatus:
		g = rd.GTrx()
	default: // an unknown op is unserved; an empty request is corrupt
		if rd.Err() == nil {
			return nil, fmt.Errorf("core: admin op %d: %w", op, common.ErrNoService)
		}
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("core: admin op %d: %w", op, err)
	}
	switch op {
	case aopAllocNode:
		id, err := c.allocNodeID()
		if err != nil {
			return nil, err
		}
		return wire.AppendU16(nil, uint16(id)), nil
	case aopCreateSpace:
		space, err := c.CreateSpace(name)
		if err != nil {
			return nil, err
		}
		return wire.AppendU32(nil, uint32(space)), nil
	case aopDrainCleanup:
		if err := membership.CheckNode(common.NodeID(node)); err != nil {
			return nil, err
		}
		c.lockSrv.DropNode(node)
		return nil, nil
	case aopTopology:
		return c.TopologyJSON()
	case aopTxStatus:
		out, cts, err := c.TxStatus(g)
		if err != nil {
			return nil, err
		}
		return wire.AppendU64(append([]byte(nil), uint8(out)), uint64(cts)), nil
	default: // aopFreeNode
		return nil, c.members.Free(common.NodeID(node))
	}
}

// adminCall performs one admin RPC from a satellite.
func (c *Cluster) adminCall(req []byte) ([]byte, error) {
	return c.statusCall(common.PMFSNode, ServiceCluster, req)
}

// statusCall performs one unbound RPC answered [status][result], retrying
// transient fabric faults and transient statuses. The loop is ours, around a
// single-shot Conn, because the status is decoded inside an attempt.
func (c *Cluster) statusCall(node common.NodeID, service string, req []byte) ([]byte, error) {
	conn := c.fabric.From(common.AnyNode)
	one := conn.WithRetry(common.NoRetryPolicy())
	var result []byte
	err := common.Retry(conn.RetryPolicy(), func() error {
		resp, err := one.Call(node, service, req)
		if err != nil {
			return err
		}
		rd := wire.NewReader(resp)
		if err := wire.DecodeStatus(rd); err != nil {
			return err
		}
		result = append([]byte(nil), rd.Rest()...)
		return nil
	})
	return result, err
}

// createSpaceRemote forwards CreateSpace to the seed, which runs it under
// its space directory lock through one of its own nodes.
func (c *Cluster) createSpaceRemote(name string) (common.SpaceID, error) {
	out, err := c.adminCall(wire.AppendString([]byte{aopCreateSpace}, name))
	if err != nil {
		return 0, fmt.Errorf("core: create space %q at seed: %w", name, err)
	}
	return common.SpaceID(wire.NewReader(out).U32()), nil
}

// allocNodeRemote reserves a node slot through the seed's admin service and
// advances the local allocation watermark past it.
func (c *Cluster) allocNodeRemote() (common.NodeID, error) {
	out, err := c.adminCall([]byte{aopAllocNode})
	if err != nil {
		return 0, fmt.Errorf("core: alloc node at seed: %w", err)
	}
	id := common.NodeID(wire.NewReader(out).U16())
	if id == 0 {
		return 0, fmt.Errorf("core: alloc node at seed: seed allocated node 0")
	}
	c.mu.Lock()
	if id >= c.nextNode {
		c.nextNode = id + 1
	}
	c.mu.Unlock()
	return id, nil
}

// drainCleanupRemote asks the seed to drop a cleanly-drained node from the
// fusion servers' tracking structures.
func (c *Cluster) drainCleanupRemote(id common.NodeID) error {
	req := wire.AppendU16([]byte{aopDrainCleanup}, uint16(id))
	if _, err := c.adminCall(req); err != nil {
		return fmt.Errorf("core: drain cleanup at seed: %w", err)
	}
	return nil
}

// freeNodeRemote asks the seed to free a drained/down node's membership slot.
func (c *Cluster) freeNodeRemote(id common.NodeID) error {
	req := wire.AppendU16([]byte{aopFreeNode}, uint16(id))
	if _, err := c.adminCall(req); err != nil {
		return fmt.Errorf("core: free node %d at seed: %w", id, err)
	}
	return nil
}

// topologyRemote fetches the seed's topology snapshot and overlays the nodes
// this satellite hosts (the seed cannot see a satellite's session counts).
func (c *Cluster) topologyRemote() (Topology, error) {
	out, err := c.adminCall([]byte{aopTopology})
	if err != nil {
		return Topology{}, fmt.Errorf("core: topology at seed: %w", err)
	}
	var t Topology
	if err := json.Unmarshal(out, &t); err != nil {
		return Topology{}, fmt.Errorf("core: topology at seed: %w", err)
	}
	// Hosted/Sessions in the seed's answer describe the seed's process;
	// rewrite them for this one.
	for i := range t.Nodes {
		t.Nodes[i].Hosted = false
		t.Nodes[i].Sessions = 0
	}
	c.overlayHosted(&t)
	return t, nil
}

// JoinRemote joins an existing cluster's fabric at addr (a seed process's
// mpserver -fabric listener) and brings up one primary node in this process.
// The returned Cluster is the satellite's handle: it hosts no PMFS and no
// store, and seed-only operations (crash orchestration, checkpoint,
// recovery) return ErrNotHosted. nc, when non-nil, receives the peer links'
// frame counters.
//
// The satellite's node id is allocated by the seed, so every JoinRemote —
// including a restarted satellite process — comes up as a fresh node; the
// old incarnation's streams and locks are recovered by the seed's takeover
// machinery, not by the new process.
func JoinRemote(cfg Config, addr string, nc *wire.NetCounters) (*Cluster, *Node, error) {
	cfg.fill()
	c := &Cluster{
		cfg:    cfg,
		fabric: newFabric(cfg),
		nodes:  make(map[common.NodeID]*Node),
		remote: true,
	}
	c.cc = newCCEngine(cfg.CC)
	peer, err := rdma.DialPeer(c.fabric, addr, rdma.PeerConfig{Name: "satellite", Counters: nc})
	if err != nil {
		return nil, nil, fmt.Errorf("core: join %s: %w", addr, err)
	}
	c.fabric.AttachDefault(peer)
	c.peer = peer

	fail := func(err error) (*Cluster, *Node, error) {
		_ = peer.Close()
		return nil, nil, err
	}
	id, err := c.allocNodeRemote()
	if err != nil {
		return fail(fmt.Errorf("core: join %s: %w", addr, err))
	}
	rs := storage.NewRemote(c.fabric.From(id))
	c.store = rs
	c.view = membership.NewRemoteView(c.fabric.From(id))

	// Announce before the node serves transactions: once it can hold locks
	// and DBP frames, the seed must be able to call back into this process
	// (PLock revocation, frame transfer) over the accepted links.
	if err := peer.Announce(id); err != nil {
		return fail(fmt.Errorf("core: join %s: announce node %d: %w", addr, id, err))
	}
	n, err := c.newNode(id, false)
	if err != nil {
		return fail(fmt.Errorf("core: join %s: %w", addr, err))
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()
	return c, n, nil
}
