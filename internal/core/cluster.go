// Package core assembles PolarDB-MP: a multi-primary cluster of full
// database nodes over disaggregated shared memory (PMFS: Transaction Fusion,
// Buffer Fusion, Lock Fusion) and disaggregated shared storage, exactly as
// Figure 2 of the paper lays it out.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/membership"
	"polardbmp/internal/metrics"
	"polardbmp/internal/page"
	"polardbmp/internal/pmfsrep"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
	"polardbmp/internal/trace"
	"polardbmp/internal/txfusion"
	"polardbmp/internal/wire"
)

// Config tunes a cluster. The zero value is a sensible test-scale cluster;
// DefaultConfig returns benchmark-scale defaults with realistic storage
// latency.
type Config struct {
	// LBPFrames is each node's local buffer pool capacity in pages.
	LBPFrames int
	// DBPFrames is the distributed buffer pool capacity in pages.
	DBPFrames int
	// TITSlots sizes each node's transaction information table.
	TITSlots int
	// StorageLatency injects shared-storage I/O delays.
	StorageLatency storage.Latency
	// FabricLatency injects RDMA verb delays.
	FabricLatency rdma.Latency
	// LockWaitTimeout bounds RLock waits (backstop behind deadlock
	// detection). Default 2s.
	LockWaitTimeout time.Duration
	// RecycleInterval is the background TIT-recycle / min-view report
	// period. Default 20ms; negative disables the background thread
	// (tests drive recycling explicitly).
	RecycleInterval time.Duration
	// PurgeInterval is the background version-purge period (the MVCC
	// vacuum). Zero disables it; purge still runs inline when pages fill.
	PurgeInterval time.Duration

	// CC selects the concurrency-control engine: "2pl" (default, the
	// paper's 2PL + CTS design) or "occ" (optimistic validation at commit,
	// one-sided-verb heavy; see DESIGN.md §14).
	CC string

	// Ablation switches (all default off = paper design).
	DisableLazyPLock bool // §4.3.1 lazy release off
	DisableLamport   bool // §4.1 Linear Lamport timestamp reuse off, and with it the lazy RC read view: one TSO fetch per statement
	DisableCTSStamp  bool // §4.1 commit-time row CTS stamping off
	// StoragePageSync replaces Buffer Fusion's DBP transfer with the
	// page-store + log-replay synchronization of Taurus-MM (§2.3): the
	// log-ship baseline and the DBP ablation.
	StoragePageSync bool

	// DisableRetry turns off transient-fault retries in the PMFS client
	// paths (the chaos ablation that demonstrates why the retries exist).
	// Crash fences, deadlocks and timeouts always fail fast either way.
	DisableRetry bool

	// SelfHeal enables online crash recovery: every node heartbeats a
	// lease into the PMFS membership table and watches its peers; when a
	// lease expires a survivor fences the dead node under a new cluster
	// epoch and runs the takeover pipeline (lock drop, in-doubt
	// resolution, redo replay, frame reclamation) without operator
	// involvement. Off by default: harnesses then declare crashes
	// explicitly via CrashNode/RestartNode.
	SelfHeal bool
	// LeaseRenewInterval is the heartbeat/detection period. Default 15ms.
	LeaseRenewInterval time.Duration
	// LeaseTimeout is how long a heartbeat may stand still before peers
	// suspect the node. Default 90ms (six renew intervals).
	LeaseTimeout time.Duration

	// Trace enables the commit-path span tracer on every node (nil = off;
	// the disabled hooks cost one pointer check and zero allocations).
	Trace *trace.Config
}

// pmfsReplicas is the replication factor of the shared-memory tier: every
// verb against a PMFS region is mirrored across K replicas with quorum
// (K/2+1) acknowledgement before it returns. drainTimeout bounds how long
// DrainNode waits for the victim's in-flight transactions.
const (
	pmfsReplicas = 3
	drainTimeout = 30 * time.Second
)

func (c *Config) fill() {
	if c.LBPFrames <= 0 {
		c.LBPFrames = 2048
	}
	if c.DBPFrames <= 0 {
		c.DBPFrames = 8192
	}
	if c.TITSlots <= 0 {
		// Sized for sustained throughput: slots are recycled only as the
		// global minimum view advances (once per RecycleInterval per
		// node), so the table must absorb RecycleInterval's worth of
		// write transactions with margin.
		c.TITSlots = 32768
	}
	if c.LockWaitTimeout <= 0 {
		c.LockWaitTimeout = 2 * time.Second
	}
	if c.RecycleInterval == 0 {
		c.RecycleInterval = 5 * time.Millisecond
	}
	if c.LeaseRenewInterval <= 0 {
		c.LeaseRenewInterval = 15 * time.Millisecond
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 90 * time.Millisecond
	}
	if c.CC == "" {
		c.CC = CC2PL
	}
}

// DefaultConfig returns benchmark defaults: realistic storage latency and
// production-shaped pool sizes (scaled to a single machine).
func DefaultConfig() Config {
	return Config{
		LBPFrames:      4096,
		DBPFrames:      16384,
		StorageLatency: storage.DefaultLatency(),
	}
}

// Cluster is a PolarDB-MP deployment: shared storage, PMFS, and N primary
// nodes.
type Cluster struct {
	cfg    Config
	fabric *rdma.Fabric
	store  storage.API

	txSrv   *txfusion.Server
	lockSrv *lockfusion.Server
	bufSrv  *bufferfusion.Server
	members *membership.Table

	// pmfsRep replicates the shared-memory tier K ways (nil in a satellite).
	// pmfsTracers is the replication observer's lock-free node→tracer
	// snapshot, rebuilt whenever a node comes up.
	pmfsRep     *pmfsrep.Replicator
	pmfsTracers atomic.Value // map[common.NodeID]*trace.Tracer

	// Satellite mode (JoinRemote): this process hosts no PMFS and no store;
	// txSrv/lockSrv/bufSrv/members are nil, verbs route over peer to the
	// seed, and view answers the recovery-fate question members would.
	remote bool
	peer   *rdma.Peer
	view   *membership.RemoteView

	// netStats, when set, contributes the process's network-layer counters
	// to ClusterStats (wired by the daemons; core stays wire-agnostic).
	netStats func() NetStats

	mu       sync.Mutex
	nodes    map[common.NodeID]*Node
	nextNode common.NodeID
	spaceMu  sync.Mutex // serializes space-directory read-modify-write

	// takeoverMu serializes surviving-node takeovers (one dead peer is
	// recovered at a time; concurrent failures queue).
	takeoverMu    sync.Mutex
	takeovers     metrics.Counter
	takeoverFails metrics.Counter
	takeoverDur   metrics.Histogram
	takeoverErrMu sync.Mutex
	takeoverErr   string // last failed-takeover diagnostic, "" when none

	// txlog is this process's bounded transaction-outcome journal
	// (txstatus.go): every commit, rollback, and takeover-resolved fate is
	// recorded so an ambiguous client commit can be resolved, not guessed.
	txlog txJournal

	// Pipelined group commit (pipeline.go): the cluster syncer's wake/stop
	// channels and round counter. pipeWake is non-nil only when the syncer
	// is running; writers attach to it in newNode.
	pipeWake    chan struct{}
	pipeStop    chan struct{}
	pipeOnce    sync.Once
	pipeRounds  atomic.Int64
	pipeStagger time.Duration

	// cc is the concurrency-control engine every node's transactions run
	// under, resolved once from Config.CC (cc.go).
	cc ccEngine
}

// NewCluster builds the shared substrate (storage + PMFS) with no nodes.
func NewCluster(cfg Config) *Cluster {
	cfg.fill()
	return NewClusterWithStore(cfg, storage.New(cfg.StorageLatency))
}

// NewClusterWithStore builds a cluster over an existing shared store — a
// recovered store, or a promoted standby replica (§3's cross-region HA).
func NewClusterWithStore(cfg Config, store storage.API) *Cluster {
	cfg.fill()
	c := &Cluster{
		cfg:      cfg,
		fabric:   newFabric(cfg),
		nodes:    make(map[common.NodeID]*Node),
		nextNode: 1,
	}
	c.cc = newCCEngine(cfg.CC)
	c.store = store
	c.startPMFS()
	c.startLogPipeline()
	return c
}

// newFabric builds the process's fabric. This is where the config picks the
// one retry policy every Conn its components build starts with: the default,
// or none under DisableRetry.
func newFabric(cfg Config) *rdma.Fabric {
	f := rdma.NewFabric(cfg.FabricLatency)
	if cfg.DisableRetry {
		f.SetConnRetry(common.NoRetryPolicy())
	}
	return f
}

// startPMFS registers the PMFS endpoint and its three fusion services.
func (c *Cluster) startPMFS() {
	ep := c.fabric.Register(common.PMFSNode)
	c.txSrv = txfusion.NewServer(ep, c.fabric)
	c.lockSrv = lockfusion.NewServer(ep, c.fabric)
	c.bufSrv = bufferfusion.NewServer(ep, c.fabric, c.store, c.cfg.DBPFrames)
	c.members = membership.NewTable(ep)
	gate := c.members.Gate()
	c.txSrv.SetEpochGate(gate)
	c.lockSrv.SetEpochGate(gate)
	c.bufSrv.SetEpochGate(gate)
	// Remote-process services: satellite nodes reach the shared store and
	// cluster administration through these endpoints.
	storage.Serve(ep, c.store)
	ep.Serve(ServiceCluster, c.handleAdmin)

	rep := pmfsrep.New(c.fabric, common.PMFSNode, pmfsReplicas)
	rep.AddRegion(txfusion.RegionTSO, 8, false)
	rep.AddRegion(txfusion.RegionGMV, 8, false)
	// The membership table is the lease/fate oracle: quorum reads so a
	// survivor's fate query never trusts a single stale copy.
	rep.AddRegion(membership.Region, membership.RegionSize, true)
	rep.AddRegion(bufferfusion.RegionDBP, c.cfg.DBPFrames*page.FrameSize, false)
	rep.OnFailover(func(uint64) {
		// Join/Evict serialize through the Table and mirror with local
		// writes that bypass the replicated path; re-seed the promoted
		// copy from what the Table actually holds.
		c.members.Remirror()
	})
	if c.cfg.Trace != nil {
		rep.SetObserver(func(src common.NodeID, d time.Duration) {
			m, _ := c.pmfsTracers.Load().(map[common.NodeID]*trace.Tracer)
			m[src].ObserveStage(trace.StagePmfsReplicate, d)
		})
	}
	rep.Attach(c.fabric)
	c.pmfsRep = rep
}

// Store exposes the shared storage (harness/inspection).
func (c *Cluster) Store() storage.API { return c.store }

// Fabric exposes the RDMA fabric (harness/inspection).
func (c *Cluster) Fabric() *rdma.Fabric { return c.fabric }

// Members exposes the membership table (harness/inspection).
func (c *Cluster) Members() *membership.Table { return c.members }

// AddNode joins a fresh primary node to the live cluster and returns it.
// This is the online join protocol, identical for the seed and for a
// satellite growing a second node: a slot is allocated dynamically from the
// membership table (reusing cleanly-drained slots; ErrUnknownNode when all
// MaxNodes slots are taken), the node is announced on the fabric before it
// serves, and it registers with the fusion services under a fresh
// incarnation epoch. Options.Nodes-style static counts are initial-topology
// sugar over this same path.
func (c *Cluster) AddNode() (*Node, error) {
	id, err := c.allocNodeID()
	if err != nil {
		return nil, err
	}
	if c.remote {
		// Announce before the node serves (see JoinRemote): the seed must be
		// able to call back into this process once the node can hold locks.
		if err := c.peer.Announce(id); err != nil {
			return nil, fmt.Errorf("core: announce node %d: %w", id, err)
		}
	}
	n, err := c.newNode(id, false)
	if err != nil {
		c.freeNodeID(id)
		return nil, err
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()
	c.refreshPmfsTracers()
	return n, nil
}

// allocNodeID reserves a cluster-unique node id: from the membership table
// on the seed (lowest free or cleanly-drained slot), via the seed's admin
// service from a satellite. nextNode tracks the local high watermark so
// id-order iteration keeps working when low slots are reused.
func (c *Cluster) allocNodeID() (common.NodeID, error) {
	if c.members == nil {
		return c.allocNodeRemote()
	}
	id, err := c.members.Alloc()
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	if id >= c.nextNode {
		c.nextNode = id + 1
	}
	c.mu.Unlock()
	return id, nil
}

// freeNodeID returns a reserved-but-never-joined slot to the table (best
// effort; a satellite's failed reservation ages out as Joining).
func (c *Cluster) freeNodeID(id common.NodeID) {
	if c.members != nil {
		_ = c.members.Free(id)
	}
}

// refreshPmfsTracers rebuilds the replication observer's node→tracer map (a
// copy-on-write snapshot: the observer runs on the replicated hot path and
// must not take c.mu).
func (c *Cluster) refreshPmfsTracers() {
	if c.pmfsRep == nil || c.cfg.Trace == nil {
		return
	}
	m := make(map[common.NodeID]*trace.Tracer)
	c.mu.Lock()
	for id, n := range c.nodes {
		m[id] = n.tracer
	}
	c.mu.Unlock()
	c.pmfsTracers.Store(m)
}

// Node returns the i-th (1-based) node, or nil if it is down.
func (c *Cluster) Node(i int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[common.NodeID(i)]
}

// Nodes returns the live nodes in id order.
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, 0, len(c.nodes))
	for id := common.NodeID(1); id < c.nextNode; id++ {
		if n := c.nodes[id]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// ErrUnknownNode reports a node id that was never added to the cluster (or,
// from slot allocation, a full membership table). It aliases the shared
// sentinel so errors.Is matches across membership, core, and the wire.
var ErrUnknownNode = common.ErrUnknownNode

// ErrDraining reports a node that is gracefully draining and refuses new
// transactions; route the work to another primary (alias of the shared
// sentinel, preserved across the wire).
var ErrDraining = common.ErrDraining

// ErrNotHosted reports an operation that needs the hosting (seed) process —
// crash orchestration, checkpointing, recovery — attempted from a satellite.
var ErrNotHosted = errors.New("core: operation requires the hosting process")

// recoveredPeer answers the recovery-fate question (did node's takeover
// complete?) from the local membership table, or in a satellite through a
// one-sided read of the seed's mirrored table.
func (c *Cluster) recoveredPeer(node common.NodeID) bool {
	if c.members != nil {
		return c.members.Recovered(node)
	}
	return c.view.Recovered(node)
}

// knownNode reports whether id was ever allocated in this cluster: its
// membership slot is occupied, or it falls under the local allocation
// watermark (the only signal a satellite has). Callers must not hold c.mu.
func (c *Cluster) knownNode(id common.NodeID) bool {
	if id < 1 || id > membership.MaxNodes {
		return false
	}
	c.mu.Lock()
	underHW := id < c.nextNode
	c.mu.Unlock()
	if underHW {
		return true
	}
	if c.members != nil {
		return c.members.State(id) != membership.StateFree
	}
	return false
}

// takeNode validates id and removes its live node from the map, returning
// the node (nil with a nil error means "known but already down").
func (c *Cluster) takeNode(id common.NodeID) (*Node, error) {
	if !c.knownNode(id) {
		return nil, fmt.Errorf("core: node %d: %w", id, ErrUnknownNode)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[id]
	delete(c.nodes, id)
	return n, nil
}

// CrashNode simulates a declared fail-stop crash of node id: its volatile
// state (LBP, TIT, un-synced log tail) is lost; its PLocks remain as a fence
// until recovery (§4.4). Foreign transactions blocked on its row locks are
// woken to retry. Crashing an unknown id returns ErrUnknownNode; crashing an
// already-down node returns ErrNodeDown without side effects (idempotent).
func (c *Cluster) CrashNode(id common.NodeID) error {
	if c.remote {
		return ErrNotHosted
	}
	n, err := c.takeNode(id)
	if err != nil {
		return err
	}
	if n == nil {
		return fmt.Errorf("core: crash node %d: %w", id, common.ErrNodeDown)
	}
	c.nodeDied(n, id)
	return nil
}

// nodeDied is the one dead-node cleanup, run for a declared crash, by the
// takeover of an undeclared one, and per node by a full-cluster crash: kill
// the process (n is nil when it is already gone), discard the un-synced log
// tail, keep the node's PLocks up as the §4.4 fence, clear its row-lock wait
// edges so blocked peers retry, and unblock the min view.
func (c *Cluster) nodeDied(n *Node, id common.NodeID) {
	if n != nil {
		n.crash()
	}
	c.store.LogCrashVolatile(id)
	c.lockSrv.PLock.MarkDead(id)
	c.lockSrv.DropNodeRLock(uint16(id))
	c.removeMinView(id)
}

// KillNode is an undeclared fail-stop: the node's volatile state is lost and
// nothing else is told — no lock cleanup, no min-view removal, no fencing.
// With SelfHeal enabled the survivors must notice the silence through the
// lease table, fence the node under a new epoch, and run takeover recovery
// themselves; this is the failure the membership layer exists for.
func (c *Cluster) KillNode(id common.NodeID) error {
	n, err := c.takeNode(id)
	if err != nil {
		return err
	}
	if n == nil {
		return fmt.Errorf("core: kill node %d: %w", id, common.ErrNodeDown)
	}
	n.crash()
	c.store.LogCrashVolatile(id)
	return nil
}

// removeMinView drops a crashed node from the min-view aggregation. The
// removal must land even on a faulty fabric or the global min view stalls
// forever, so it retries transient faults (removal is idempotent). It is
// issued unbound (AnyNode), as cluster housekeeping.
func (c *Cluster) removeMinView(id common.NodeID) {
	req := make([]byte, 3)
	req[0] = 2 // opRemoveNode
	binary.LittleEndian.PutUint16(req[1:], uint16(id))
	_, _ = c.fabric.From(common.AnyNode).Call(common.PMFSNode, txfusion.ServiceTxF, req)
}

// RestartNode brings a crashed node back: it replays its own redo log
// (mostly against pages still in the DBP, §5.5), rolls back its pre-crash
// uncommitted transactions, lifts its PLock fence, and rejoins under a fresh
// incarnation epoch. Restarting an id that was never added returns
// ErrUnknownNode; restarting a live node returns an error without side
// effects. If a survivor is mid-takeover of this node's previous
// incarnation, the membership join waits for the takeover to finish.
func (c *Cluster) RestartNode(id common.NodeID) (*Node, error) {
	if c.remote {
		return nil, ErrNotHosted
	}
	if !c.knownNode(id) {
		return nil, fmt.Errorf("core: restart node %d: %w", id, ErrUnknownNode)
	}
	c.mu.Lock()
	if c.nodes[id] != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: node %d is still live", id)
	}
	c.mu.Unlock()
	n, err := c.newNode(id, true)
	if err != nil {
		return nil, err
	}
	if err := n.recoverSelf(); err != nil {
		return nil, fmt.Errorf("core: node %d recovery: %w", id, err)
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()
	c.refreshPmfsTracers()
	return n, nil
}

// KillPMFSReplica fail-stops one replica of the replicated shared-memory
// tier: the replica is fenced, the pmfs epoch advances exactly once, and if
// the leader died the most-advanced follower is promoted. In-flight verbs
// caught in the failover window fail with a typed-transient error the
// issuing Conns' retry absorbs. Returns an error when replication is disabled,
// the replica is already fenced, or it is the last live copy.
func (c *Cluster) KillPMFSReplica(id int) error {
	if c.remote {
		return ErrNotHosted
	}
	return c.pmfsRep.KillReplica(id)
}

// PmfsReplicator exposes the shared-memory replication tier
// (harness/inspection; nil when replication is disabled).
func (c *Cluster) PmfsReplicator() *pmfsrep.Replicator { return c.pmfsRep }

// CrashAll simulates a full-cluster failure including PMFS: every node's
// volatile state and the disaggregated memory (DBP, TSO, lock tables) are
// lost; only shared storage survives. Use RecoverAll + AddNode to come
// back.
func (c *Cluster) CrashAll() {
	if c.remote {
		return
	}
	c.mu.Lock()
	nodes := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.nodes = make(map[common.NodeID]*Node)
	c.nextNode = 1
	c.mu.Unlock()
	for _, n := range nodes {
		c.nodeDied(n, n.id)
	}
	// PMFS dies too: rebuild it empty over the same fabric ids — with it go
	// the PLock fences nodeDied left up.
	c.bufSrv.Reset()
	c.members.Reset()
	for _, n := range nodes {
		c.lockSrv.DropNodePLock(uint16(n.id))
	}
	c.txSrv.SetTSO(common.CSNMin)
	// The resets above mutate regions through local writes; re-baseline the
	// follower mirrors so they track the rebuilt leader copy.
	c.pmfsRep.Resync()
}

// FabricStats is a snapshot of RDMA fabric verb and byte counters, encoded by
// the type that counts them. Vectored (doorbell-batched) verbs count as one
// op; bytes accumulate every segment.
type FabricStats = rdma.OpCounts

// StorageStats is a snapshot of shared-storage I/O counters.
type StorageStats struct {
	PageReads int64 `json:"page_reads"`
	LogSyncs  int64 `json:"log_syncs"`
}

// LockStats is a snapshot of Lock Fusion server counters.
type LockStats struct {
	PLockNegotiations int64 `json:"plock_negotiations"`
	RLockWaits        int64 `json:"rlock_waits"`
	RLockDeadlocks    int64 `json:"rlock_deadlocks"`
}

// MembershipStats is a snapshot of the lease/online-recovery counters.
type MembershipStats struct {
	Epoch           uint64        `json:"epoch"`                  // current cluster epoch
	EpochBumps      int64         `json:"epoch_bumps"`            // evictions won (each bumps the epoch)
	FalseSuspicions int64         `json:"false_suspicions"`       // evictions refused by a racing renewal
	LeaseRenewals   int64         `json:"lease_renewals"`         // heartbeat writes by live nodes
	Takeovers       int64         `json:"takeovers"`              // completed surviving-node takeovers
	TakeoverFails   int64         `json:"takeover_fails"`         // takeover attempts abandoned: recovery error or wedged takeover lock
	TakeoverErr     string        `json:"takeover_err,omitempty"` // last failed-takeover diagnostic
	TakeoverMean    time.Duration `json:"takeover_mean_ns"`       // mean takeover duration
}

// PmfsStats is the replicated shared-memory tier's section of the stats
// JSON, encoded by the type that counts it. With replication disabled the
// section reports a single live copy and zeros elsewhere.
type PmfsStats = pmfsrep.Stats

// NodeStats is one node's slice of the cluster snapshot: engine counters,
// transaction latency quantiles, the fabric ops this node issued, and (with
// tracing on) its per-stage breakdown.
type NodeStats struct {
	Node      int   `json:"node"`
	Commits   int64 `json:"commits"`
	Aborts    int64 `json:"aborts"`
	Deadlocks int64 `json:"deadlocks"`
	// Conflicts counts OCC validation aborts (zero under 2PL).
	Conflicts int64 `json:"conflicts,omitempty"`
	// DeferredAborts counts rollbacks finished in the background because a
	// page was unreachable (partition, peer crash fence) at abort time.
	DeferredAborts int64 `json:"deferred_aborts,omitempty"`
	// DeadlineAborts counts this node's latency-budget aborts.
	DeadlineAborts int64         `json:"deadline_aborts"`
	TxP50          time.Duration `json:"tx_p50_ns"`
	TxP99          time.Duration `json:"tx_p99_ns"`
	// Fabric counts ops issued BY this node (per-source attribution).
	Fabric FabricStats           `json:"fabric"`
	Stages []trace.StageSnapshot `json:"stages,omitempty"`
}

// NetStats is the network-layer section of the stats JSON, encoded by the
// type that counts it.
type NetStats = wire.NetSnapshot

// SetNetStats installs the provider of the NetStats stats section (nil
// removes it). The daemons pass their wire.NetCounters' Snapshot; in-process
// clusters have no network layer and leave it unset.
func (c *Cluster) SetNetStats(fn func() NetStats) { c.netStats = fn }

// ClusterStats is the unified observability surface: cluster totals, the
// per-node decomposition, and — when tracing is enabled — merged
// cluster-wide per-stage histograms and the slow-transaction log.
// CommitPipeStats is the commit-path section of the stats JSON: which CC
// engine ran, how much work the pipelined group commit absorbed, and how
// often the speculative CTS / adaptive TSO fast paths fired (DESIGN.md §14).
type CommitPipeStats struct {
	Engine string `json:"engine"`
	// PipelineRounds counts syncer log-sync rounds; PipelineRides counts
	// commits whose durability wait was absorbed by an in-flight round
	// instead of running a sync of their own.
	PipelineRounds int64 `json:"pipeline_rounds"`
	PipelineRides  int64 `json:"pipeline_rides"`
	// SpecCTSHits of SpecCTSReads remote CTS lookups were answered from
	// the owner's published recycle floor without touching the TIT slot.
	SpecCTSReads int64 `json:"spec_cts_reads"`
	SpecCTSHits  int64 `json:"spec_cts_hits"`
	// TSOSolo/TSOGroup split CTS grants between the adaptive solo
	// fetch-add path and flat-combined group rounds.
	TSOSolo  int64 `json:"tso_solo"`
	TSOGroup int64 `json:"tso_group"`
	// OCCConflicts counts validation aborts (zero under 2PL).
	OCCConflicts int64 `json:"occ_conflicts"`
}

type ClusterStats struct {
	Commits   int64 `json:"commits"`
	Aborts    int64 `json:"aborts"`
	Deadlocks int64 `json:"deadlocks"`
	// DeadlineAborts counts transactions aborted on a spent latency budget.
	DeadlineAborts int64 `json:"deadline_aborts"`

	Commit CommitPipeStats `json:"commit"`

	Fabric      FabricStats     `json:"fabric"`
	Storage     StorageStats    `json:"storage"`
	DBPResident int             `json:"dbp_resident_pages"`
	Locks       LockStats       `json:"locks"`
	Membership  MembershipStats `json:"membership"`
	Pmfs        PmfsStats       `json:"pmfs"`
	// Net is present only in processes that speak the socket transport or
	// serve client sessions (mpserver, mpgateway).
	Net *NetStats `json:"net,omitempty"`

	Nodes []NodeStats `json:"nodes,omitempty"`

	// Stages merges every node's per-stage aggregates (histogram merge is
	// associative, so the fold order does not matter). Empty when tracing
	// is off.
	Stages []trace.StageSnapshot `json:"stages,omitempty"`
	// SlowTxs collects every node's slow-transaction log, newest first per
	// node. Empty unless a slow-transaction threshold is configured.
	SlowTxs []trace.TxSummary `json:"slow_txs,omitempty"`
}

// Stats aggregates engine counters across nodes and PMFS.
func (c *Cluster) Stats() ClusterStats {
	var s ClusterStats
	var merged trace.StagesDump
	traced := false
	for _, n := range c.Nodes() {
		ns := NodeStats{
			Node:           int(n.id),
			Commits:        n.Commits.Load(),
			Aborts:         n.Aborts.Load(),
			Deadlocks:      n.Deadlocks.Load(),
			Conflicts:      n.Conflicts.Load(),
			DeferredAborts: n.DeferredAborts.Load(),
			DeadlineAborts: n.DeadlineAborts.Load(),
			TxP50:          n.TxLatency.Quantile(0.50),
			TxP99:          n.TxLatency.Quantile(0.99),
			Fabric:         c.fabric.SrcStats(n.id).Snapshot(),
		}
		if n.tracer != nil {
			traced = true
			d := n.tracer.Dump()
			ns.Stages = d.Snapshots()
			merged.Merge(d)
			s.SlowTxs = append(s.SlowTxs, n.tracer.Slow()...)
		}
		s.Commits += ns.Commits
		s.Aborts += ns.Aborts
		s.Deadlocks += ns.Deadlocks
		s.DeadlineAborts += ns.DeadlineAborts
		s.Commit.OCCConflicts += ns.Conflicts
		s.Commit.TSOSolo += n.TSOSolo.Load()
		s.Commit.TSOGroup += n.TSOGroup.Load()
		s.Commit.PipelineRides += n.wal.Rides()
		specHits, specReads := n.tf.SpecCTSStats()
		s.Commit.SpecCTSHits += specHits
		s.Commit.SpecCTSReads += specReads
		s.Membership.LeaseRenewals += n.agent.Renewals.Load()
		s.Nodes = append(s.Nodes, ns)
	}
	s.Commit.Engine = c.cc.Name()
	s.Commit.PipelineRounds = c.pipeRounds.Load()
	if traced {
		s.Stages = merged.Snapshots()
	}
	s.Fabric = c.fabric.Stats().Snapshot()
	s.Storage.PageReads = c.store.Stats().PageReads.Load()
	s.Storage.LogSyncs = c.store.Stats().LogSyncs.Load()
	// A satellite hosts no PMFS: the fusion-server and membership-table
	// sections belong to the seed process's snapshot.
	if c.bufSrv != nil {
		s.DBPResident = c.bufSrv.Len()
	}
	if c.lockSrv != nil {
		s.Locks.PLockNegotiations = c.lockSrv.PLock.Negotiations.Load()
		s.Locks.RLockWaits = c.lockSrv.RLock.Waits.Load()
		s.Locks.RLockDeadlocks = c.lockSrv.RLock.Deadlocks.Load()
	}
	if c.members != nil {
		s.Membership.Epoch = uint64(c.members.CurrentEpoch())
		s.Membership.EpochBumps = c.members.EpochBumps.Load()
		s.Membership.FalseSuspicions = c.members.FalseSuspicions.Load()
	}
	if c.pmfsRep != nil {
		s.Pmfs = c.pmfsRep.Snapshot()
	} else if !c.remote {
		s.Pmfs = PmfsStats{Replicas: 1, Live: 1}
	}
	s.Membership.Takeovers = c.takeovers.Load()
	s.Membership.TakeoverFails = c.takeoverFails.Load()
	c.takeoverErrMu.Lock()
	s.Membership.TakeoverErr = c.takeoverErr
	c.takeoverErrMu.Unlock()
	s.Membership.TakeoverMean = c.takeoverDur.Mean()
	if c.netStats != nil {
		ns := c.netStats()
		s.Net = &ns
	}
	return s
}

// Checkpoint flushes every LBP and the DBP to shared storage and truncates
// all redo streams. The cluster must be quiesced (no active transactions, no
// rollback still compensating in the background): truncation would otherwise
// discard undo information of in-flight work.
func (c *Cluster) Checkpoint() error {
	if c.remote {
		return fmt.Errorf("core: checkpoint: %w", ErrNotHosted)
	}
	for _, n := range c.Nodes() {
		if a := n.activeTx.Load(); a != 0 {
			return fmt.Errorf("core: checkpoint with %d active transactions on node %d", a, n.id)
		}
		if p := n.compensating.Load(); p != 0 {
			return fmt.Errorf("core: checkpoint with %d pending compensations on node %d", p, n.id)
		}
	}
	for _, n := range c.Nodes() {
		if err := n.lbp.FlushAll(); err != nil {
			return err
		}
	}
	if err := c.bufSrv.FlushAll(); err != nil {
		return err
	}
	for _, n := range c.Nodes() {
		n.wal.Sync(n.wal.End())
		c.store.LogTruncate(n.id, n.wal.Durable())
	}
	return nil
}

// Close shuts down all nodes (flushing buffers) without simulating a crash.
// A satellite flushes its LBPs through the uplink, then drops the peer
// connections.
func (c *Cluster) Close() {
	c.stopLogPipeline()
	for _, n := range c.Nodes() {
		n.agent.Stop()
		n.stopBackground()
		_ = n.lbp.FlushAll()
	}
	if c.bufSrv != nil {
		_ = c.bufSrv.FlushAll()
	}
	if c.peer != nil {
		_ = c.peer.Close()
	}
}

// --- space directory --------------------------------------------------------

const spaceDirKey = "spacedir"

type spaceInfo struct {
	Name   string
	Space  common.SpaceID
	Anchor common.PageID
}

func decodeSpaceDir(b []byte) []spaceInfo {
	var out []spaceInfo
	for len(b) >= 4 {
		nameLen := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < nameLen+12 {
			break
		}
		si := spaceInfo{
			Name:   string(b[:nameLen]),
			Space:  common.SpaceID(binary.LittleEndian.Uint32(b[nameLen:])),
			Anchor: common.PageID(binary.LittleEndian.Uint64(b[nameLen+4:])),
		}
		b = b[nameLen+12:]
		out = append(out, si)
	}
	return out
}

func encodeSpaceDir(dir []spaceInfo) []byte {
	var b []byte
	for _, si := range dir {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(si.Name)))
		b = append(b, si.Name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(si.Space))
		b = binary.LittleEndian.AppendUint64(b, uint64(si.Anchor))
	}
	return b
}

// lookupSpace returns the directory entry for name, if present.
func (c *Cluster) lookupSpace(name string) (spaceInfo, bool) {
	for _, si := range decodeSpaceDir(c.store.GetMeta(spaceDirKey)) {
		if si.Name == name {
			return si, true
		}
	}
	return spaceInfo{}, false
}

// lookupSpaceByID returns the directory entry for a space id.
func (c *Cluster) lookupSpaceByID(id common.SpaceID) (spaceInfo, bool) {
	for _, si := range decodeSpaceDir(c.store.GetMeta(spaceDirKey)) {
		if si.Space == id {
			return si, true
		}
	}
	return spaceInfo{}, false
}

// CreateSpace creates a named tablespace (one B-tree) through any live node
// and returns its id. Creating an existing name returns its id.
func (c *Cluster) CreateSpace(name string) (common.SpaceID, error) {
	if c.remote {
		// The seed serializes directory read-modify-write under ITS spaceMu;
		// a satellite mutating the directory locally would race it.
		return c.createSpaceRemote(name)
	}
	c.spaceMu.Lock()
	defer c.spaceMu.Unlock()
	if si, ok := c.lookupSpace(name); ok {
		return si.Space, nil
	}
	nodes := c.Nodes()
	if len(nodes) == 0 {
		return 0, fmt.Errorf("core: create space %q: no live nodes", name)
	}
	n := nodes[0]
	dir := decodeSpaceDir(c.store.GetMeta(spaceDirKey))
	id := common.SpaceID(len(dir) + 1)
	anchor, err := n.createTree(id)
	if err != nil {
		return 0, err
	}
	// The tree pages must be durable before the directory names them.
	n.wal.Sync(n.wal.End())
	dir = append(dir, spaceInfo{Name: name, Space: id, Anchor: anchor})
	c.store.PutMeta(spaceDirKey, encodeSpaceDir(dir))
	return id, nil
}

// SpaceID resolves a space name.
func (c *Cluster) SpaceID(name string) (common.SpaceID, error) {
	if si, ok := c.lookupSpace(name); ok {
		return si.Space, nil
	}
	return 0, fmt.Errorf("core: space %q: %w", name, common.ErrNotFound)
}

// storeMetaTrxHW persists a node's transaction-id watermark.
func (c *Cluster) storeMetaTrxHW(id common.NodeID, hw common.TrxID) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(hw))
	c.store.PutMeta(fmt.Sprintf("trxhw/%d", id), b[:])
}

func (c *Cluster) loadMetaTrxHW(id common.NodeID) common.TrxID {
	b := c.store.GetMeta(fmt.Sprintf("trxhw/%d", id))
	if len(b) < 8 {
		return 0
	}
	return common.TrxID(binary.LittleEndian.Uint64(b))
}
