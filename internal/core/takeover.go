package core

import (
	"fmt"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/membership"
	"polardbmp/internal/page"
	"polardbmp/internal/wal"
)

// noteTakeoverErr records the latest failed-takeover diagnostic for stats
// (a completed takeover clears it).
func (c *Cluster) noteTakeoverErr(dead common.NodeID, err error) {
	c.takeoverErrMu.Lock()
	defer c.takeoverErrMu.Unlock()
	if err == nil {
		c.takeoverErr = ""
		return
	}
	c.takeoverErr = fmt.Sprintf("node %d: %v", dead, err)
}

// peerTrx is one of a dead node's transactions as reconstructed from its
// durable redo stream by the takeover scan.
type peerTrx struct {
	g        common.GTrxID
	undo     []undoEntry
	finished bool
	cts      common.CSN // logged commit timestamp; 0 for aborted
}

// takeoverLockLeases bounds a survivor's wait for the takeover lock, in lease
// timeouts (2.9s at the default 90ms lease).
const takeoverLockLeases = 32

// takeover is the surviving-node recovery pipeline (the paper's §4.4 crash
// recovery run online by a peer instead of the restarted node): after the
// membership table fenced dead under a new cluster epoch, the winning
// survivor repairs the dead node's shared state so the cluster keeps serving
// without waiting for a restart.
func (c *Cluster) takeover(dead common.NodeID, epoch common.Epoch, survivor *Node) {
	// Serialize takeovers without deadlocking against our own fencing:
	// under severe scheduling starvation two nodes can evict each other
	// across successive epochs, and the mutex holder's STONITH of this
	// survivor waits (via agent.Stop) for this very goroutine. Poll with
	// TryLock and abandon the takeover once this survivor is no longer
	// live — the winner that fenced us owns any remaining repair. The wait
	// is bounded in lease timeouts: a holder that long over is wedged, not
	// working, and the detectors' fenced-slot sweep re-runs the takeover
	// for as long as the slot stays Fenced, so abandoning loses nothing.
	wait := takeoverLockLeases * c.cfg.LeaseTimeout
	giveUp := time.Now().Add(wait)
	for !c.takeoverMu.TryLock() {
		if !survivor.Live() {
			return
		}
		if time.Now().After(giveUp) {
			c.takeoverFails.Inc()
			c.noteTakeoverErr(dead, fmt.Errorf("abandoned by node %d: takeover lock busy for %v", survivor.id, wait))
			return
		}
		time.Sleep(time.Millisecond)
	}
	defer c.takeoverMu.Unlock()
	if !survivor.Live() {
		return
	}
	if c.members.State(dead) != membership.StateFenced {
		return // duplicate callback: another survivor already finished
	}
	start := time.Now()

	// STONITH: the "dead" node may be merely slow; kill its process first
	// so no zombie thread extends the log or publishes state mid-takeover.
	// (Its fabric requests are already rejected by the epoch gate.)
	c.mu.Lock()
	n := c.nodes[dead]
	delete(c.nodes, dead)
	c.mu.Unlock()
	if n != nil {
		n.crash()
	}

	// Fence the redo stream and discard its un-synced tail: the durable
	// prefix is now immutable and owned by this takeover.
	c.store.FenceLog(dead)
	c.store.LogCrashVolatile(dead)

	// Declared-crash cleanup (what CrashNode does for an operator): keep
	// the PLock fence up, clear the dead node's wait edges so blocked
	// peers retry, drop its DBP registrations, unblock the min view.
	c.lockSrv.PLock.MarkDead(dead)
	c.lockSrv.DropNodeRLock(uint16(dead))
	c.bufSrv.DropNode(uint16(dead))
	c.removeMinView(dead)

	trxs, err := survivor.recoverPeer(dead)
	if err != nil {
		// Fail safe: the PLock fence stays up (the dead node's X pages
		// remain unreachable) and the slot stays Fenced. Re-open the log
		// so a later RestartNode can still run self-recovery over the
		// intact stream — or the detector's fenced-slot sweep retries the
		// takeover after its cooldown. Record the failure so a stuck slot
		// is diagnosable from /stats instead of silent.
		c.store.UnfenceLog(dead)
		c.takeoverFails.Inc()
		c.noteTakeoverErr(dead, err)
		return
	}

	// The fenced pages are repaired in storage; lift the fence so the
	// engine paths below — and every peer — can reach them again.
	c.lockSrv.DropNodePLock(uint16(dead))
	c.lockSrv.PLock.ClearDead(dead)

	survivor.finishPeerRecovery(trxs)

	// Journal every reconstructed fate BEFORE marking the node recovered:
	// the commit-ambiguity protocol polls "active" until recovery completes,
	// then expects the seed's journal to hold the answer (txstatus.go). An
	// unfinished transaction was rolled back above — for its client the
	// commit record never became durable, so "aborted" is the truth, not a
	// guess.
	for _, st := range trxs {
		if st.finished && st.cts != 0 {
			c.txlog.record(st.g, st.cts)
		} else {
			c.txlog.record(st.g, 0)
		}
	}

	// Only now may readers resolve the dead node's remaining unstamped
	// versions as checkpoint-old (CSNMin): everything younger was stamped
	// or removed above.
	c.members.MarkRecovered(dead)
	c.store.LogTruncate(dead, c.store.LogDurableLSN(dead))
	c.store.UnfenceLog(dead)
	c.takeovers.Inc()
	c.noteTakeoverErr(dead, nil)
	c.takeoverDur.Observe(time.Since(start))
}

// recoverPeer replays a fenced dead node's durable redo stream while its
// PLock fence is still up. The fence set — pages the dead node held X PLocks
// on — is exactly where its latest changes may exist only in its log
// (flush-before-release pushed every released page), so those pages are
// rebuilt in storage: stale DBP frames reclaimed, redo applied, and the dead
// node's own versions resolved in-image (committed stamped with the logged
// CTS, in-doubt removed). Returns the reconstructed transaction outcomes for
// the engine-path finish.
func (n *Node) recoverPeer(dead common.NodeID) ([]*peerTrx, error) {
	c := n.c

	// Pass 1: scan the stream for transaction outcomes, retaining the page
	// mutations for replay. Folding the dead node's LLSNs into our counter
	// keeps our future records ordered after everything we replay.
	trxs := make(map[common.GTrxID]*peerTrx)
	var order []*peerTrx
	var recs []*wal.Record
	sr := wal.NewStreamReader(c.store, dead, c.store.LogStartLSN(dead), 0)
	for {
		rec, err := sr.Next()
		if err != nil {
			return nil, err
		}
		if rec == nil {
			break
		}
		n.llsn.Observe(rec.LLSN)
		switch rec.Type {
		case wal.RecInsert, wal.RecRollback, wal.RecPageImage:
			recs = append(recs, rec)
		}
		if rec.Trx.Zero() || rec.Trx.Node != dead {
			continue
		}
		st := trxs[rec.Trx]
		if st == nil {
			st = &peerTrx{g: rec.Trx}
			trxs[rec.Trx] = st
			order = append(order, st)
		}
		switch rec.Type {
		case wal.RecInsert:
			st.undo = append(st.undo, undoEntry{space: rec.Space, key: rec.Key})
		case wal.RecCommit:
			st.finished = true
			st.cts = rec.CTS
		case wal.RecAbort:
			st.finished = true
		}
	}

	fenced := c.lockSrv.PLock.HeldBy(dead)
	inFence := make(map[common.PageID]bool)
	var fencedX []common.PageID
	for pg, mode := range fenced {
		if mode == lockfusion.ModeX {
			inFence[pg] = true
			fencedX = append(fencedX, pg)
		}
	}

	// Reclaim the fenced pages' DBP frames (flushing non-stale dirty state)
	// so the storage image is the single base the replay builds on.
	c.bufSrv.Reclaim(fencedX)

	// Pass 2: replay the retained records onto the fenced pages' storage
	// images in log order; applyRecord's LLSN rule keeps this idempotent
	// against changes already pushed before the crash.
	images := make(map[common.PageID]*page.Page)
	for _, rec := range recs {
		if !inFence[rec.Page] {
			continue
		}
		pg := images[rec.Page]
		if pg == nil {
			img, err := c.store.ReadPage(rec.Page)
			if err == nil {
				if pg, err = page.Unmarshal(img); err != nil {
					return nil, err
				}
			} else if rec.Type == wal.RecPageImage {
				// Created after the last checkpoint: the creation image
				// is the first record for the page.
				pg = page.New(rec.Page, rec.Space, page.TypeLeaf)
			} else {
				// A mutation record must follow the page's creation (in
				// the log or a checkpoint); nothing to apply it to.
				continue
			}
			images[rec.Page] = pg
		}
		var dirty bool
		applyRecord(pg, rec, &dirty)
	}

	// Resolve the dead node's versions in-image and publish the repaired
	// pages; peers fault them in from storage once the fence lifts. The
	// replay accumulated one version per logged insert — under a hot-key
	// workload that is far more history than any snapshot can reach — so
	// apply the engine's Purge rule at the cluster's min view, exactly as
	// the live write path would have, before marshaling into a frame.
	gmv := n.tf.LastGMV()
	for _, pg := range images {
		resolvePeerVersions(pg, dead, trxs)
		pg.Purge(gmv, n.batchResolver(pg))
	}
	for id, pg := range images {
		img, err := pg.Marshal()
		if err != nil {
			return nil, err
		}
		if err := c.store.WritePage(id, img); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// resolvePeerVersions settles every version the dead node wrote on a
// replayed page: committed versions get their logged CTS, in-doubt versions
// (no commit record survived, so the client never got an acknowledgement)
// are removed, aborted leftovers are removed, and versions from before the
// retained log finished under an earlier checkpoint — visible to all.
func resolvePeerVersions(pg *page.Page, dead common.NodeID, trxs map[common.GTrxID]*peerTrx) {
	rows := pg.Rows[:0]
	for ri := range pg.Rows {
		r := &pg.Rows[ri]
		keep := r.Versions[:0]
		for vi := range r.Versions {
			v := r.Versions[vi]
			if v.Trx.Zero() || v.Trx.Node != dead || v.CTS != common.CSNInit {
				keep = append(keep, v)
				continue
			}
			st := trxs[v.Trx]
			switch {
			case st == nil:
				v.CTS = common.CSNMin // pre-checkpoint commit
				keep = append(keep, v)
			case !st.finished:
				// in-doubt: drop the version (rollback)
			case st.cts != 0:
				v.CTS = st.cts
				keep = append(keep, v)
			default:
				// aborted: its compensation record should already have
				// removed this; drop the leftover either way
			}
		}
		r.Versions = keep
		if len(r.Versions) > 0 {
			rows = append(rows, *r)
		}
	}
	pg.Rows = rows
}

// finishPeerRecovery settles the dead node's transactions on pages outside
// the fence set through the normal engine paths (rows may have migrated
// across pages since they were written): in-doubt versions are rolled back
// with compensation records, committed-but-unstamped versions get their CTS
// so readers stop treating them as active. Entries behind a second crashed
// node's fence are retried for a bounded time; leftovers resolve through the
// membership fate rule once that node recovers too.
func (n *Node) finishPeerRecovery(trxs []*peerTrx) {
	deadline := time.Now().Add(10 * time.Second)
	for _, st := range trxs {
		if st.finished {
			if st.cts != 0 {
				n.stampPeerCTS(st)
			}
			continue
		}
		undo := st.undo
		for len(undo) > 0 {
			rest := n.rollbackEntries(st.g, undo)
			if len(rest) == len(undo) && time.Now().After(deadline) {
				break
			}
			undo = rest
			if len(undo) > 0 {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	n.wal.Sync(n.wal.End())
}

// stampPeerCTS stamps a committed transaction's surviving versions wherever
// its rows live now.
func (n *Node) stampPeerCTS(st *peerTrx) {
	seen := make(map[string]bool, len(st.undo))
	for _, e := range st.undo {
		k := fmt.Sprintf("%d/%s", e.space, e.key)
		if seen[k] {
			continue
		}
		seen[k] = true
		t, err := n.tree(e.space)
		if err != nil {
			continue
		}
		ref, err := t.LeafSafe(e.key, lockfusion.ModeX)
		if err != nil {
			continue
		}
		if ref.Page.StampCTS(st.g, st.cts) > 0 {
			ref.Opaque.(*bufferfusion.Frame).Dirty = true
		}
		n.releasePager(ref)
	}
}
