package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/btree"
	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/membership"
	"polardbmp/internal/metrics"
	"polardbmp/internal/page"
	"polardbmp/internal/rdma"
	"polardbmp/internal/trace"
	"polardbmp/internal/txfusion"
	"polardbmp/internal/wal"
)

// trxHWInterval/trxHWSlack govern the persisted transaction-id watermark: a
// restarted node resumes allocation above every id its previous incarnation
// could have used, so a global transaction id never aliases across a crash.
const (
	trxHWInterval = 4096
	trxHWSlack    = 2 * trxHWInterval
)

// Node is one primary: a complete database instance (buffer pool,
// transaction manager, log writer, B-tree access layer) wired to PMFS.
type Node struct {
	id common.NodeID
	c  *Cluster
	ep *rdma.Endpoint

	tf   *txfusion.Client
	pl   *lockfusion.PLockClient
	rl   *lockfusion.RLockClient
	lbp  *bufferfusion.Client
	wal  *wal.Writer
	llsn wal.LLSNCounter

	// agent is the node's lease/failure-detection worker.
	agent *membership.Agent

	// tracer is the node's commit-path span tracer; nil (the default)
	// disables tracing at a one-pointer-check cost per hook.
	tracer *trace.Tracer

	trxCtr   atomic.Uint64
	activeTx atomic.Int64
	live     atomic.Bool
	// draining refuses new transactions (Begin returns ErrDraining) while a
	// graceful drain waits out the in-flight ones; commits keep working.
	draining atomic.Bool
	// deferredRollbacks is set while post-crash rollbacks wait on another
	// crashed node's fence; TIT recycling pauses so the fence semantics
	// stay sound for new transactions.
	deferredRollbacks atomic.Bool
	// compensating counts background compensation loops (whenDrained) still
	// running: their undo lives only in the log, so Checkpoint refuses.
	compensating atomic.Int64

	treeMu sync.Mutex
	trees  map[common.SpaceID]*btree.Tree

	stopBG   chan struct{}
	bgDone   sync.WaitGroup
	stopOnce sync.Once

	// Stats for the figure harnesses.
	Commits   metrics.Counter
	Aborts    metrics.Counter
	Deadlocks metrics.Counter
	// DeferredAborts counts live rollbacks that could not reach every page
	// (peer crash fence, partition) and finished in the background; the TIT
	// slot stays active until the compensation lands.
	DeferredAborts metrics.Counter
	// Conflicts counts OCC validation failures (retryable
	// ErrWriteConflict aborts; always zero under 2PL).
	Conflicts metrics.Counter
	// TSOSolo/TSOGroup split commit-timestamp grants between the solo
	// fetch-add path and flat-combined group rounds.
	TSOSolo  metrics.Counter
	TSOGroup metrics.Counter
	// DeadlineAborts counts transactions that failed because their latency
	// budget expired (ErrDeadlineExceeded — never retried).
	DeadlineAborts metrics.Counter
	TxLatency      metrics.Histogram
}

// newNode registers a node on the fabric and wires its PMFS clients. With
// recovering=true the TIT recovery fence is raised; the caller must run
// recoverSelf before the node serves transactions.
func (c *Cluster) newNode(id common.NodeID, recovering bool) (*Node, error) {
	ep := c.fabric.Register(id)
	n := &Node{
		id:     id,
		c:      c,
		ep:     ep,
		trees:  make(map[common.SpaceID]*btree.Tree),
		stopBG: make(chan struct{}),
	}
	// Every fusion request this incarnation's clients send carries its
	// epoch: bound before they build their Conns, stored by the agent's Join.
	stamp := &common.EpochStamp{}
	c.fabric.BindStamp(id, stamp)
	n.tf = txfusion.NewClient(ep, c.fabric, txfusion.Config{
		TITSlots:     c.cfg.TITSlots,
		LamportReuse: !c.cfg.DisableLamport,
		CTSCacheSize: 1 << 14,
	})
	if recovering {
		n.tf.SetRecovering(true)
	}
	lcfg := lockfusion.Config{
		WaitTimeout:        c.cfg.LockWaitTimeout,
		DisableLazyRelease: c.cfg.DisableLazyPLock,
	}
	n.pl = lockfusion.NewPLockClient(ep, c.fabric, lcfg)
	n.rl = lockfusion.NewRLockClient(ep, c.fabric, n.tf, lcfg)
	n.lbp = bufferfusion.NewClient(ep, c.fabric, c.store, c.cfg.LBPFrames)
	n.lbp.SetStorageMode(c.cfg.StoragePageSync)
	n.wal = wal.NewWriter(c.store, id)
	if c.pipeWake != nil {
		n.wal.AttachPipeline(c.pipeWake)
	}

	// Tracing: one tracer per node, attached to every subsystem that
	// classifies its own stages. The per-source fabric counters give span
	// op/byte attribution.
	if c.cfg.Trace != nil {
		n.tracer = trace.New(id, *c.cfg.Trace, c.fabric.SrcStats(id))
		n.tf.SetTracer(n.tracer)
		n.pl.SetTracer(n.tracer)
		n.lbp.SetTracer(n.tracer)
		n.wal.SetTracer(n.tracer)
	}

	// Membership: join the lease table, which sets the stamp's epoch. The
	// agent's renew/detect loops run only under SelfHeal; joining and
	// stamping are unconditional so the epoch gate always sees current
	// incarnations.
	n.agent = membership.NewAgent(id, common.PMFSNode, c.fabric, stamp, membership.Config{
		RenewInterval: c.cfg.LeaseRenewInterval,
		LeaseTimeout:  c.cfg.LeaseTimeout,
	})
	if !c.remote {
		// The takeover pipeline drives the fusion servers directly; a
		// satellite can detect and evict a dead peer but a seed-side
		// survivor must run the recovery.
		n.agent.SetOnTakeover(func(dead common.NodeID, epoch common.Epoch) {
			c.takeover(dead, epoch, n)
		})
	}
	// Commit-ambiguity resolution: any process may ask this node for the
	// fate of one of its transactions (journal + TIT; see txstatus.go).
	ep.Serve(ServiceTxStatus, n.handleTxStatus)
	if err := n.joinCluster(); err != nil {
		ep.Deregister()
		return nil, err
	}
	if c.cfg.SelfHeal {
		n.agent.Start()
	}

	// Wire the cross-layer hooks: force-log-before-push (§4.2) and
	// flush-dirty-page-before-PLock-release (§4.3.1).
	// Forcing only to the page's covering LSN (not the whole log end) makes
	// the post-commit and revoke-time flushes of already-durable pages free:
	// they no longer wait on other threads' in-flight appends.
	n.lbp.SetForceLog(func(upTo common.LSN) {
		if upTo == 0 {
			upTo = n.wal.End()
		}
		n.wal.Sync(upTo)
	})
	n.pl.SetRevokeHandler(func(pg common.PageID, held lockfusion.Mode) error {
		if held == lockfusion.ModeX {
			// A failed push vetoes the release (see RevokeFunc): a peer
			// must never be granted a page whose latest image is still
			// only in this node's LBP.
			return n.lbp.PushByID(pg)
		}
		return nil
	})
	// Validity travels with the lock: X releases name the page version they
	// leave behind, and grants mark older cached copies stale.
	n.pl.SetPageVersions(n.lbp)

	// Resume transaction ids above the persisted watermark, and seed the
	// speculative-CTS recycle floor there: every id at or below it is
	// finished (or never allocated), and ids are strictly monotone across
	// incarnations, so peers' cached floors stay sound.
	base := c.loadMetaTrxHW(id)
	n.trxCtr.Store(uint64(base))
	c.storeMetaTrxHW(id, base+trxHWSlack)
	n.tf.InitTrxFloor(base)

	n.live.Store(true)
	if !recovering {
		n.startBackground()
	}
	return n, nil
}

// joinCluster registers the node with the membership table, waiting out a
// takeover of this id's previous incarnation (Join is refused while the slot
// is fenced, so a restart cannot overlap the survivor replaying its log) or
// a still-completing drain of it (Join is refused mid-drain for the same
// no-overlap reason).
func (n *Node) joinCluster() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := n.agent.Join()
		if err == nil {
			return nil
		}
		if (!errors.Is(err, common.ErrFenced) && !errors.Is(err, common.ErrDraining)) ||
			time.Now().After(deadline) {
			return fmt.Errorf("core: node %d join: %w", n.id, err)
		}
		time.Sleep(n.c.cfg.LeaseRenewInterval)
	}
}

// leaseCheck fail-fasts a commit when this incarnation lost its lease: an
// evicted node must observe its own eviction and abort rather than publish.
// No-op unless SelfHeal is on (without the detector nobody evicts anyone).
func (n *Node) leaseCheck() error {
	if !n.c.cfg.SelfHeal {
		return nil
	}
	if err := n.agent.CheckValid(); err != nil {
		return fmt.Errorf("core: node %d: %w", n.id, err)
	}
	return nil
}

// ID returns the node id.
func (n *Node) ID() common.NodeID { return n.id }

// Live reports whether the node is serving.
func (n *Node) Live() bool { return n.live.Load() }

// LBP exposes the node's buffer pool stats (harness/inspection).
func (n *Node) LBP() *bufferfusion.Client { return n.lbp }

// PLocks exposes the node's PLock client stats (harness/inspection).
func (n *Node) PLocks() *lockfusion.PLockClient { return n.pl }

// TxFusion exposes the node's Transaction Fusion client (harness).
func (n *Node) TxFusion() *txfusion.Client { return n.tf }

// Tracer returns the node's commit-path tracer (nil when tracing is off).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// ForceLogSync forces the node's redo stream durable to its current end
// (test/replication hook).
func (n *Node) ForceLogSync() { n.wal.Sync(n.wal.End()) }

func (n *Node) startBackground() {
	if n.c.cfg.RecycleInterval > 0 {
		n.bgDone.Add(1)
		go func() {
			defer n.bgDone.Done()
			tick := time.NewTicker(n.c.cfg.RecycleInterval)
			defer tick.Stop()
			for {
				select {
				case <-n.stopBG:
					return
				case <-tick.C:
					if n.live.Load() && !n.deferredRollbacks.Load() {
						_, _ = n.tf.ReportMinView()
					}
				}
			}
		}()
	}
	if n.c.cfg.PurgeInterval > 0 {
		n.bgDone.Add(1)
		go func() {
			defer n.bgDone.Done()
			tick := time.NewTicker(n.c.cfg.PurgeInterval)
			defer tick.Stop()
			for {
				select {
				case <-n.stopBG:
					return
				case <-tick.C:
					if !n.live.Load() || n.deferredRollbacks.Load() {
						continue
					}
					// Purge the spaces this node has opened trees for.
					n.treeMu.Lock()
					spaces := make([]common.SpaceID, 0, len(n.trees))
					for sp := range n.trees {
						spaces = append(spaces, sp)
					}
					n.treeMu.Unlock()
					for _, sp := range spaces {
						if !n.live.Load() {
							return
						}
						_, _ = n.PurgeSpace(sp)
					}
				}
			}
		}()
	}
}

func (n *Node) stopBackground() {
	n.stopOnce.Do(func() { close(n.stopBG) })
	n.bgDone.Wait()
}

// crash kills the node: stops its workers and tears it down.
func (n *Node) crash() {
	n.live.Store(false)
	n.agent.Stop()
	n.stopBackground()
	n.teardown()
}

// teardown is the one local teardown (crash, and the last step of a drain):
// fences all the node's clients so zombie goroutines cannot touch shared
// state, and deregisters it from the fabric.
func (n *Node) teardown() {
	n.tf.Close()
	n.pl.Close()
	n.lbp.Close()
	n.wal.Close()
	n.ep.Deregister()
}

// nextTrx allocates a node-local transaction id, persisting the watermark
// every trxHWInterval allocations.
func (n *Node) nextTrx() common.TrxID {
	id := common.TrxID(n.trxCtr.Add(1))
	if uint64(id)%trxHWInterval == 0 {
		n.c.storeMetaTrxHW(n.id, id+trxHWSlack)
	}
	return id
}

// tree returns the node's handle on a space's B-tree.
func (n *Node) tree(space common.SpaceID) (*btree.Tree, error) {
	n.treeMu.Lock()
	t := n.trees[space]
	n.treeMu.Unlock()
	if t != nil {
		return t, nil
	}
	si, ok := n.c.lookupSpaceByID(space)
	if !ok {
		return nil, fmt.Errorf("core: space %d: %w", space, common.ErrNotFound)
	}
	t = btree.New(&pager{n: n}, space, si.Anchor)
	n.treeMu.Lock()
	n.trees[space] = t
	n.treeMu.Unlock()
	return t, nil
}

// createTree builds a fresh B-tree for a new space and returns its anchor.
func (n *Node) createTree(space common.SpaceID) (common.PageID, error) {
	anchor, err := btree.Create(&pager{n: n}, space)
	if err != nil {
		return 0, err
	}
	n.treeMu.Lock()
	n.trees[space] = btree.New(&pager{n: n}, space, anchor)
	n.treeMu.Unlock()
	return anchor, nil
}

// resolveCTS implements Algorithm 1's entry point for a row version: the
// stamped CTS if present, otherwise the TIT lookup. Unreachable owners
// resolve by fate: while the owner is crashed and unrecovered its versions
// count as still active (CSNMax, the §4.4 fence semantic); once a survivor's
// takeover finished, every in-doubt version was removed and every
// in-recovery commit stamped, so a version still unstamped can only belong
// to a transaction that finished before the last checkpoint — visible to
// all (CSNMin).
func (n *Node) resolveCTS(v *page.Version) common.CSN {
	if v.CTS != common.CSNInit {
		return v.CTS
	}
	if v.Trx.Zero() {
		return common.CSNMin
	}
	cts, err := n.tf.GetTrxCTS(v.Trx)
	if err != nil {
		return n.unreachableCTS(v.Trx.Node)
	}
	return cts
}

// unreachableCTS is the fate of an unstamped version whose owner's TIT cannot
// be read: still active until the owner's recovery has finished, visible to
// all after.
func (n *Node) unreachableCTS(owner common.NodeID) common.CSN {
	if n.c.recoveredPeer(owner) {
		return common.CSNMin
	}
	return common.CSNMax
}

// batchResolver returns a version-resolution function equivalent to
// resolveCTS but scoped to one page: every unstamped foreign version on the
// page is pre-resolved through one vectored TIT read per owning node
// (GetTrxCTSBatch), so the per-version calls that follow are pure map
// lookups. Transactions the batch could not reach resolve by the same fate
// rule as resolveCTS. Pages with nothing to look up fall back to resolveCTS
// untouched — the common case once commit-time stamping has run.
func (n *Node) batchResolver(pg *page.Page) func(*page.Version) common.CSN {
	var gs []common.GTrxID
	for ri := range pg.Rows {
		row := &pg.Rows[ri]
		for vi := range row.Versions {
			v := &row.Versions[vi]
			if v.CTS == common.CSNInit && !v.Trx.Zero() {
				gs = append(gs, v.Trx)
			}
		}
	}
	if len(gs) == 0 {
		return n.resolveCTS
	}
	m := n.tf.GetTrxCTSBatch(gs)
	return func(v *page.Version) common.CSN {
		if v.CTS != common.CSNInit {
			return v.CTS
		}
		if v.Trx.Zero() {
			return common.CSNMin
		}
		if cts, ok := m[v.Trx]; ok {
			return cts
		}
		// The owner was unreachable during the batch.
		return n.unreachableCTS(v.Trx.Node)
	}
}

// unloggedChange records a change that writes no redo record — a purge or a
// CTS stamp — on a page the node holds in X: the page still takes a fresh
// LLSN, because its LLSN is the version a PLock grant checks cached copies
// against (DESIGN.md §4, "Validity travels with the lock"). Redo stays exact:
// the fresh LLSN is above every record already in the image, and every later
// record for the page is drawn above it.
func (n *Node) unloggedChange(pg *page.Page, f *bufferfusion.Frame) {
	n.llsn.Observe(pg.LLSN)
	pg.LLSN = n.llsn.Next()
	f.Dirty = true
}

// PurgeSpace trims version chains across a space using the current global
// minimum view (the purge/vacuum path). Returns versions removed.
func (n *Node) PurgeSpace(space common.SpaceID) (int, error) {
	t, err := n.tree(space)
	if err != nil {
		return 0, err
	}
	gmv := n.tf.LastGMV()
	removed := 0
	var emptied [][]byte // a key routed to each fully-purged leaf
	ref, err := t.First(lockfusion.ModeX)
	if err != nil {
		return 0, err
	}
	var lastKey []byte
	for ref != nil {
		before := removed
		if len(ref.Page.Rows) > 0 {
			lastKey = append(lastKey[:0], ref.Page.Rows[0].Key...)
		}
		removed += ref.Page.Purge(gmv, n.batchResolver(ref.Page))
		if removed != before {
			n.unloggedChange(ref.Page, ref.Opaque.(*bufferfusion.Frame))
		}
		if len(ref.Page.Rows) == 0 && lastKey != nil {
			emptied = append(emptied, append([]byte(nil), lastKey...))
		}
		ref, err = t.Next(ref, lockfusion.ModeX)
		if err != nil {
			return removed, err
		}
	}
	// Shrink pass: unlink the leaves the purge emptied.
	for _, key := range emptied {
		if _, err := t.UnlinkEmptyLeaf(key); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
