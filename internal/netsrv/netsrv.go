// Package netsrv adapts a core node to the wire session protocol: it is the
// thin layer between mpserver's network front door and the engine. The
// adapter is deliberately stateless — session and transaction bookkeeping
// live in wire.Server, engine semantics in core — so it is also where the
// cluster's stats JSON (including the NetStats section) is assembled for
// both the session protocol's OpStats and the daemons' /stats endpoint.
package netsrv

import (
	"encoding/json"
	"fmt"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/core"
	"polardbmp/internal/wire"
)

// Backend serves one node of a cluster (in-process or satellite) over the
// session protocol.
type Backend struct {
	c *core.Cluster
	n *core.Node

	join JoinInfo
}

// New returns the wire backend for node n of cluster c.
func New(c *core.Cluster, n *core.Node) *Backend { return &Backend{c: c, n: n} }

var _ wire.Backend = (*Backend)(nil)

// TxStatus resolves a transaction's outcome from its global id
// (OpTxStatus). The resolution chain — journal, TIT, owner fabric call,
// membership fate rule — lives in core.
func (b *Backend) TxStatus(g common.GTrxID) (uint8, uint64, error) {
	out, cts, err := b.c.TxStatus(g)
	return uint8(out), uint64(cts), err
}

// JoinInfo is the OpJoinInfo document: the coordinates a new daemon needs to
// join this cluster, plus which node answered. The daemon fills what it
// knows (a satellite learns the fabric address from its own -join flag).
type JoinInfo struct {
	// Cluster is the daemon's display name.
	Cluster string `json:"cluster,omitempty"`
	// FabricAddr is the seed's fabric listener — what a new `mpserver -join`
	// should dial. Empty when this daemon does not serve a fabric.
	FabricAddr string `json:"fabric_addr,omitempty"`
	// Node is the node this backend serves transactions through.
	Node int `json:"node"`
	// Seed reports whether this process hosts the PMFS substrate.
	Seed bool `json:"seed"`
}

// SetJoinInfo installs the daemon-level join coordinates served by
// OpJoinInfo (the Node field is overwritten with this backend's node).
func (b *Backend) SetJoinInfo(ji JoinInfo) {
	ji.Node = int(b.n.ID())
	b.join = ji
}

// TopologyJSON serves the cluster topology snapshot (OpTopology).
func (b *Backend) TopologyJSON() ([]byte, error) {
	return b.c.TopologyJSON()
}

// Drain gracefully drains a node hosted by this process (OpDrain).
func (b *Backend) Drain(node uint16) error {
	return b.c.DrainNode(common.NodeID(node))
}

// JoinInfoJSON serves the join coordinates (OpJoinInfo).
func (b *Backend) JoinInfoJSON() ([]byte, error) {
	ji := b.join
	ji.Node = int(b.n.ID())
	ji.Seed = !b.c.Remote()
	return json.Marshal(ji)
}

// Begin opens an engine transaction; budget > 0 becomes the transaction's
// end-to-end deadline, which the engine propagates down to fabric verbs.
func (b *Backend) Begin(iso uint8, budget time.Duration) (wire.Tx, error) {
	tx, err := b.n.BeginDeadline(core.Isolation(iso), common.DeadlineAfter(budget))
	if err != nil {
		return nil, err
	}
	return (*netTx)(tx), nil
}

// CreateSpace creates (or finds) a named tablespace.
func (b *Backend) CreateSpace(name string) (uint32, error) {
	sp, err := b.c.CreateSpace(name)
	return uint32(sp), err
}

// SpaceID resolves a tablespace name.
func (b *Backend) SpaceID(name string) (uint32, error) {
	sp, err := b.c.SpaceID(name)
	return uint32(sp), err
}

// StatsJSON marshals the cluster snapshot (the same document the daemons'
// /stats endpoint serves).
func (b *Backend) StatsJSON() ([]byte, error) {
	return json.Marshal(b.c.Stats())
}

// netTx adapts *core.Tx to wire.Tx.
type netTx core.Tx

func (t *netTx) tx() *core.Tx { return (*core.Tx)(t) }

func (t *netTx) Get(space uint32, key []byte) ([]byte, error) {
	return t.tx().Get(common.SpaceID(space), key)
}

func (t *netTx) GetForUpdate(space uint32, key []byte) ([]byte, error) {
	return t.tx().GetForUpdate(common.SpaceID(space), key)
}

func (t *netTx) Insert(space uint32, key, value []byte) error {
	return t.tx().Insert(common.SpaceID(space), key, value)
}

func (t *netTx) Update(space uint32, key, value []byte) error {
	return t.tx().Update(common.SpaceID(space), key, value)
}

func (t *netTx) Upsert(space uint32, key, value []byte) error {
	return t.tx().Upsert(common.SpaceID(space), key, value)
}

func (t *netTx) Delete(space uint32, key []byte) error {
	return t.tx().Delete(common.SpaceID(space), key)
}

func (t *netTx) Scan(space uint32, from, to []byte, limit int) ([]wire.KV, error) {
	kvs, err := t.tx().Scan(common.SpaceID(space), from, to, limit)
	if err != nil {
		return nil, err
	}
	out := make([]wire.KV, len(kvs))
	for i, kv := range kvs {
		out[i] = wire.KV{Key: kv.Key, Value: kv.Value}
	}
	return out, nil
}

func (t *netTx) Commit() error   { return t.tx().Commit() }
func (t *netTx) Rollback() error { return t.tx().Rollback() }

// GTrxID exposes the engine's global transaction id: the OpBegin response
// carries it so the client can resolve ambiguous commits.
func (t *netTx) GTrxID() common.GTrxID { return t.tx().GTrxID() }

// DB is an in-process cluster as the workload generators drive it
// (workload.DB): node i's transactions are the same wire.Tx the session
// server hands a remote client.
type DB struct {
	Cluster *core.Cluster
}

// NewDB builds a cluster with n nodes.
func NewDB(cfg core.Config, n int) (*DB, error) {
	c := core.NewCluster(cfg)
	for i := 0; i < n; i++ {
		if _, err := c.AddNode(); err != nil {
			return nil, err
		}
	}
	return &DB{Cluster: c}, nil
}

// NodeCount returns the number of live primaries.
func (d *DB) NodeCount() int { return len(d.Cluster.Nodes()) }

// CreateTable creates (or opens) a named tablespace.
func (d *DB) CreateTable(name string) (uint32, error) {
	sp, err := d.Cluster.CreateSpace(name)
	return uint32(sp), err
}

// Begin starts a read-committed transaction on the i-th (0-based) primary.
// The node is resolved per call: a restart replaces the *core.Node mid-run.
func (d *DB) Begin(node int) (wire.Tx, error) {
	n := d.Cluster.Node(node + 1)
	if n == nil {
		return nil, fmt.Errorf("netsrv: node %d: %w", node+1, common.ErrNodeDown)
	}
	tx, err := n.Begin()
	if err != nil {
		return nil, err
	}
	return (*netTx)(tx), nil
}
