// Package polardbmp is a from-scratch Go implementation of PolarDB-MP
// (SIGMOD 2024): a multi-primary cloud-native database built on
// disaggregated shared memory (PMFS — Transaction Fusion, Buffer Fusion,
// Lock Fusion) over disaggregated shared storage.
//
// Every node in a Cluster is a full primary: it executes complete
// transactions locally — no distributed transactions — while PMFS
// coordinates global transaction visibility (TSO + per-node transaction
// information tables read over one-sided RDMA), cache coherence (a
// distributed buffer pool whose cached copies are validated when a page
// lock is granted), and cross-node locking
// (page locks with lazy release, row locks embedded in the rows).
//
// Quick start:
//
//	db, _ := polardbmp.Open(polardbmp.Options{Nodes: 2})
//	defer db.Close()
//	accounts, _ := db.CreateTable("accounts")
//	tx, _ := db.Node(1).Begin()
//	tx.Insert(accounts, []byte("alice"), []byte("100"))
//	tx.Commit()
//	tx2, _ := db.Node(2).Begin() // a different primary
//	val, _ := tx2.Get(accounts, []byte("alice"))
//	tx2.Commit()
package polardbmp

import (
	"fmt"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/core"
	"polardbmp/internal/storage"
	"polardbmp/internal/trace"
)

// Version identifies this build of the engine; the daemons (mpserver,
// mpgateway) report it via their -version flag.
const Version = "0.8.0"

// Re-exported error values; test with errors.Is.
var (
	ErrNotFound    = common.ErrNotFound
	ErrKeyExists   = common.ErrKeyExists
	ErrDeadlock    = common.ErrDeadlock
	ErrLockTimeout = common.ErrLockTimeout
	ErrTxDone      = common.ErrTxDone
	ErrNodeDown    = common.ErrNodeDown
	// ErrStaleEpoch rejects work from a node incarnation the cluster has
	// fenced (lease lost, survivors took over). The node must restart.
	ErrStaleEpoch = common.ErrStaleEpoch
	// ErrUnknownNode reports a node id never added to the cluster.
	ErrUnknownNode = core.ErrUnknownNode
	// ErrDeadlineExceeded fails a transaction whose latency budget (see
	// Node.BeginWithDeadline) is spent. NOT retryable: the budget models an
	// end-to-end SLO, so retrying inside it makes no sense — the caller
	// must roll back and decide at its own layer.
	ErrDeadlineExceeded = common.ErrDeadlineExceeded
	// ErrOverloaded fails a page fetch whose node's local buffer pool has
	// every frame pinned by in-flight statements. Retryable: backing off
	// and retrying is the intended response, and the built-in retry
	// policies already absorb brief pin pile-ups transparently.
	ErrOverloaded = common.ErrOverloaded
	// ErrDraining refuses a Begin on a node that is gracefully leaving the
	// cluster (Cluster.Drain). Deliberately NOT retryable: the node will
	// never admit again, so the right response is to route the transaction
	// to another primary, not to retry here.
	ErrDraining = common.ErrDraining
	// ErrNotHosted reports an admin operation (e.g. draining a node) issued
	// to a process that does not host the node; drive it through the hosting
	// daemon's admin API instead.
	ErrNotHosted = core.ErrNotHosted
)

// IsRetryable reports whether err is a transient transaction failure
// (deadlock, lock timeout, fenced page during recovery, buffer pool overload)
// that the application should retry. ErrDeadlineExceeded is deliberately
// not retryable.
func IsRetryable(err error) bool { return common.IsRetryable(err) }

// Options configures a cluster.
type Options struct {
	// Nodes is the number of primary nodes in the INITIAL topology (default
	// 1) — it only shapes the cluster at Open. Scale online afterwards:
	// AddNode joins a new primary to the live cluster, Drain gracefully
	// removes one, and Topology reports the current membership.
	Nodes int
	// LocalBufferPages is each node's local buffer pool size in pages
	// (default 2048).
	LocalBufferPages int
	// SharedBufferPages is the distributed buffer pool size in pages
	// (default 8192).
	SharedBufferPages int
	// LockWaitTimeout bounds row-lock waits (default 2s). It is a backstop:
	// deadlocks are caught by cycle detection at wait registration, so an
	// expiry (ErrLockTimeout, retryable) only fires on genuinely slow
	// holders. A transaction begun with BeginWithDeadline waits at most
	// min(LockWaitTimeout, its remaining budget).
	LockWaitTimeout time.Duration
	// RealisticStorageLatency injects cloud-storage I/O delays (~100µs),
	// as the benchmark harnesses do. Off by default for tests.
	RealisticStorageLatency bool
	// DataDir, when set, backs the shared store with a directory so the
	// database survives process restarts. Opening a non-empty directory
	// runs full-cluster recovery over its logs before serving.
	DataDir string
	// SelfHealing enables lease-based failure detection: every primary
	// heartbeats into shared memory and watches its peers, and when one
	// falls silent a survivor fences it under a new cluster epoch and
	// recovers its locks, transactions and redo automatically — no
	// CrashNode/RestartNode calls needed.
	SelfHealing bool
}

// Option tunes knobs beyond the basic Options struct. Options carries the
// deployment shape; functional options carry observability and other
// additive features, so new knobs never break Open call sites.
type Option func(*openConfig)

type openConfig struct {
	trace *trace.Config
	cc    string
}

func (o *openConfig) tracing() *trace.Config {
	if o.trace == nil {
		o.trace = &trace.Config{}
	}
	return o.trace
}

// WithTracer enables the always-on commit-path span tracer on every node:
// per-stage latency/fabric-op histograms, a ring of recent transaction
// traces, and Tx.Info span timelines. Disabled tracing costs one pointer
// check per hook and zero allocations.
func WithTracer() Option {
	return func(o *openConfig) { o.tracing() }
}

// WithSlowTxThreshold enables tracing and logs every transaction slower
// than d into the per-node slow-transaction log (see ClusterStats.SlowTxs).
func WithSlowTxThreshold(d time.Duration) Option {
	return func(o *openConfig) { o.tracing().SlowTxThreshold = d }
}

// WithCC selects the concurrency-control engine: "2pl" (default — the
// paper's pessimistic design, statement-time row claims with commit-time
// CTS stamping) or "occ" (optimistic — statements stage writes locally and
// never block; validation and apply happen at commit under leaf page locks,
// and a lost race surfaces as a retryable write-conflict error). Both run
// the same commit pipeline (TSO grant, group-committed log force, TIT
// publish). Unknown names fail Open.
func WithCC(name string) Option {
	return func(o *openConfig) { o.cc = name }
}

// Cluster is a PolarDB-MP deployment: N primary nodes over shared memory
// and shared storage.
type Cluster struct {
	c *core.Cluster
}

// Open builds a cluster with opts.Nodes primaries.
func Open(opts Options, extra ...Option) (*Cluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	var oc openConfig
	for _, fn := range extra {
		fn(&oc)
	}
	if oc.cc != "" && !core.ValidCC(oc.cc) {
		return nil, fmt.Errorf("polardbmp: unknown concurrency-control engine %q (want %q or %q)", oc.cc, core.CC2PL, core.CCOCC)
	}
	cfg := core.Config{
		CC:              oc.cc,
		LBPFrames:       opts.LocalBufferPages,
		DBPFrames:       opts.SharedBufferPages,
		LockWaitTimeout: opts.LockWaitTimeout,
		SelfHeal:        opts.SelfHealing,
		Trace:           oc.trace,
	}
	if opts.RealisticStorageLatency {
		cfg.StorageLatency = core.DefaultConfig().StorageLatency
	}
	var c *core.Cluster
	if opts.DataDir != "" {
		store, err := storage.OpenDir(opts.DataDir, cfg.StorageLatency)
		if err != nil {
			return nil, err
		}
		existing := store.PageCount() > 0
		c = core.NewClusterWithStore(cfg, store)
		if existing {
			if err := c.RecoverAll(); err != nil {
				return nil, fmt.Errorf("polardbmp: recovering %s: %w", opts.DataDir, err)
			}
		}
	} else {
		c = core.NewCluster(cfg)
	}
	for i := 0; i < opts.Nodes; i++ {
		if _, err := c.AddNode(); err != nil {
			return nil, err
		}
	}
	return &Cluster{c: c}, nil
}

// Close flushes buffers and shuts the cluster down.
func (c *Cluster) Close() { c.c.Close() }

// Table names a tablespace (one B-tree index).
type Table struct {
	space common.SpaceID
	name  string
}

// Name returns the table's name.
func (t Table) Name() string { return t.name }

// CreateTable creates (or opens) a named table.
func (c *Cluster) CreateTable(name string) (Table, error) {
	sp, err := c.c.CreateSpace(name)
	if err != nil {
		return Table{}, err
	}
	return Table{space: sp, name: name}, nil
}

// Node returns a handle on the i-th (1-based) primary.
func (c *Cluster) Node(i int) *Node {
	return &Node{c: c.c, id: common.NodeID(i)}
}

// NodeState is a node's topology state: NodeActive, NodeJoining,
// NodeDraining, NodeDrained, or NodeCrashed.
type NodeState = core.NodeState

// Topology node states.
const (
	NodeActive   = core.NodeActive
	NodeJoining  = core.NodeJoining
	NodeDraining = core.NodeDraining
	NodeDrained  = core.NodeDrained
	NodeCrashed  = core.NodeCrashed
)

// NodeInfo is one node's row in a Topology snapshot: id, state, incarnation
// epoch, and (for nodes hosted by this process) its in-flight session count.
type NodeInfo = core.NodeInfo

// Topology is a point-in-time membership snapshot. Its Epoch bumps on every
// join, drain, and eviction, so epochs observed over time are monotone and
// two equal-epoch snapshots describe the same topology.
type Topology = core.Topology

// Topology snapshots the cluster membership: every slot ever allocated, its
// state, incarnation, and — for nodes hosted in this process — the in-flight
// session count.
func (c *Cluster) Topology() (Topology, error) { return c.c.Topology() }

// AddNode scales the cluster out by one primary and returns its handle. The
// join is online: the new node allocates a membership slot (reusing slots of
// gracefully drained nodes), registers with the fusion services, and
// announces itself before serving — ongoing transactions on other primaries
// are never disturbed.
func (c *Cluster) AddNode() (*Node, error) {
	n, err := c.c.AddNode()
	if err != nil {
		return nil, err
	}
	return &Node{c: c.c, id: n.ID()}, nil
}

// Drain gracefully removes node i from the cluster: the node stops admitting
// new transactions (Begin returns ErrDraining), waits out its in-flight ones,
// flushes every dirty page it owns, releases its locks, and fences its
// incarnation cleanly. No takeover runs and no redo is replayed — in contrast
// to a crash, a graceful drain aborts zero transactions for membership
// reasons. The freed slot is reused by a future AddNode.
func (c *Cluster) Drain(i int) error { return c.c.DrainNode(common.NodeID(i)) }

// Remove takes node i out of the topology for good and frees its membership
// slot. A live node is drained first; a node already drained (or down after
// recovery) has only its slot freed.
func (c *Cluster) Remove(i int) error { return c.c.RemoveNode(common.NodeID(i)) }

// CrashNode fail-stops a node: volatile state is lost; its uncommitted
// transactions are rolled back when it restarts; other nodes keep serving.
// Returns ErrUnknownNode for an id that was never added, ErrNodeDown when
// the node is already down (no side effects either way).
func (c *Cluster) CrashNode(i int) error { return c.c.CrashNode(common.NodeID(i)) }

// KillNode fail-stops a node without telling the cluster anything — the
// undeclared failure SelfHealing exists for. Survivors detect the silence
// through the lease table and take over. Same error contract as CrashNode.
func (c *Cluster) KillNode(i int) error { return c.c.KillNode(common.NodeID(i)) }

// RestartNode recovers a crashed node (replaying its redo log, largely from
// the shared memory pool) and rejoins it.
func (c *Cluster) RestartNode(i int) (*Node, error) {
	n, err := c.c.RestartNode(common.NodeID(i))
	if err != nil {
		return nil, err
	}
	return &Node{c: c.c, id: n.ID()}, nil
}

// Checkpoint flushes all buffers to storage and truncates the redo logs.
// The cluster must be quiesced.
func (c *Cluster) Checkpoint() error { return c.c.Checkpoint() }

// Internal exposes the underlying engine cluster for the benchmark
// harnesses; applications should not need it.
func (c *Cluster) Internal() *core.Cluster { return c.c }

// ClusterStats is the cluster-wide observability snapshot: engine totals,
// fabric/storage/lock/membership counters, the per-node decomposition, and
// — when tracing is on — merged per-stage histograms and the slow-
// transaction log. All fields are JSON-tagged; json.Marshal of a snapshot
// is the wire format mpbench and mpshell emit.
type ClusterStats = core.ClusterStats

// FabricStats counts RDMA fabric verbs and bytes (one op per doorbell for
// vectored verbs).
type FabricStats = core.FabricStats

// NodeStats is one node's slice of a ClusterStats snapshot.
type NodeStats = core.NodeStats

// StageSnapshot summarizes one commit-pipeline stage: count, latency
// quantiles, and attributed fabric ops.
type StageSnapshot = trace.StageSnapshot

// TxSummary is a finished transaction's span timeline.
type TxSummary = trace.TxSummary

// TxInfo is a transaction's introspection snapshot (see Tx.Info).
type TxInfo = core.TxInfo

// Stats aggregates engine counters across nodes and PMFS.
func (c *Cluster) Stats() ClusterStats { return c.c.Stats() }

// Node is a handle on one primary. All handles to the same id observe the
// node's current incarnation, so a handle survives Crash/Restart cycles.
type Node struct {
	c  *core.Cluster
	id common.NodeID
}

// ID returns the node's 1-based id.
func (n *Node) ID() int { return int(n.id) }

// Live reports whether the node is currently serving.
func (n *Node) Live() bool {
	nd := n.c.Node(int(n.id))
	return nd != nil && nd.Live()
}

func (n *Node) engine() (*core.Node, error) {
	nd := n.c.Node(int(n.id))
	if nd == nil {
		return nil, fmt.Errorf("polardbmp: node %d: %w", n.id, common.ErrNodeDown)
	}
	return nd, nil
}

// Begin starts a read-committed transaction on this primary.
func (n *Node) Begin() (*Tx, error) {
	nd, err := n.engine()
	if err != nil {
		return nil, err
	}
	tx, err := nd.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{tx: tx}, nil
}

// BeginSnapshot starts a snapshot-isolation transaction (read view fixed at
// begin).
func (n *Node) BeginSnapshot() (*Tx, error) {
	nd, err := n.engine()
	if err != nil {
		return nil, err
	}
	tx, err := nd.BeginIso(core.SnapshotIsolation)
	if err != nil {
		return nil, err
	}
	return &Tx{tx: tx}, nil
}

// BeginWithDeadline starts a read-committed transaction with a total
// latency budget of d. Every blocking step of the transaction — remote
// page-lock waits (bounded server-side, so an abandoned waiter never holds
// its queue slot), row-lock parks, shared-memory page fetches and their
// retry backoff — charges against the budget; once it is spent the
// transaction fails with the non-retryable ErrDeadlineExceeded and must be
// rolled back. d <= 0 is unbounded (identical to Begin).
func (n *Node) BeginWithDeadline(d time.Duration) (*Tx, error) {
	nd, err := n.engine()
	if err != nil {
		return nil, err
	}
	tx, err := nd.BeginDeadline(core.ReadCommitted, common.DeadlineAfter(d))
	if err != nil {
		return nil, err
	}
	return &Tx{tx: tx}, nil
}

// Tx is a transaction bound to one primary. Use from a single goroutine.
type Tx struct {
	tx *core.Tx
}

// Get returns key's value under the transaction's isolation level.
func (t *Tx) Get(tab Table, key []byte) ([]byte, error) {
	return t.tx.Get(tab.space, key)
}

// GetForUpdate is a locking read (SELECT ... FOR UPDATE): it returns the
// latest committed value and leaves the row locked by this transaction.
func (t *Tx) GetForUpdate(tab Table, key []byte) ([]byte, error) {
	return t.tx.GetForUpdate(tab.space, key)
}

// Insert adds a row; ErrKeyExists if a live row exists.
func (t *Tx) Insert(tab Table, key, value []byte) error {
	return t.tx.Insert(tab.space, key, value)
}

// Update replaces a row; ErrNotFound if no live row exists.
func (t *Tx) Update(tab Table, key, value []byte) error {
	return t.tx.Update(tab.space, key, value)
}

// Upsert inserts or replaces unconditionally.
func (t *Tx) Upsert(tab Table, key, value []byte) error {
	return t.tx.Upsert(tab.space, key, value)
}

// Delete removes a row; ErrNotFound if no live row exists.
func (t *Tx) Delete(tab Table, key []byte) error {
	return t.tx.Delete(tab.space, key)
}

// KV is a scan result row.
type KV = core.KV

// Scan returns up to limit visible rows with from <= key < to (nil bounds
// are open).
func (t *Tx) Scan(tab Table, from, to []byte, limit int) ([]KV, error) {
	return t.tx.Scan(tab.space, from, to, limit)
}

// Info returns the transaction's introspection snapshot: global id, state,
// commit timestamp, and — when the cluster was opened WithTracer — the
// span timeline. Call from the transaction's own goroutine.
func (t *Tx) Info() TxInfo { return t.tx.Info() }

// Commit makes the transaction durable and globally visible.
func (t *Tx) Commit() error { return t.tx.Commit() }

// Rollback undoes the transaction.
func (t *Tx) Rollback() error { return t.tx.Rollback() }
