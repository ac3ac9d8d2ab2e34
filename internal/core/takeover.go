package core

import (
	"fmt"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/membership"
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

	// Fence the redo stream — its durable prefix is now immutable and owned by
	// this takeover — then STONITH: the "dead" node may be merely slow, so
	// kill its process before anything is repaired (its fabric requests are
	// already rejected by the epoch gate) and run the dead-node cleanup.
	c.mu.Lock()
	n := c.nodes[dead]
	delete(c.nodes, dead)
	c.mu.Unlock()
	c.store.FenceLog(dead)
	c.nodeDied(n, dead)

	a, err := survivor.recoverPeer(dead)
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

	// Settle the dead node's transactions outside the fence set through the
	// normal engine paths (rows may have migrated across pages since they
	// were written): committed-but-unstamped versions get their CTS so
	// readers stop treating them as active, unfinished ones one compensation
	// pass. Entries behind a second crashed node's fence stay pending: the
	// slot stays Fenced — the dead node's versions keep resolving as active —
	// and the stream untruncated, and the detectors' fenced-slot sweep
	// re-runs this takeover (replay is idempotent by the LLSN rule) once that
	// fence has lifted, which may need takeoverMu.
	for _, t := range a.order {
		if t.cts != 0 {
			survivor.stampPeerCTS(t)
		}
	}
	left := survivor.compensate(a.unfinished())
	survivor.wal.Sync(survivor.wal.End())
	if len(left) > 0 {
		entries := 0
		for _, t := range left {
			entries += len(t.undo)
		}
		c.noteTakeoverErr(dead, fmt.Errorf("compensation pending: %d entries", entries))
		return
	}

	// Journal every reconstructed fate BEFORE marking the node recovered:
	// the commit-ambiguity protocol polls "active" until recovery completes,
	// then expects the seed's journal to hold the answer (txstatus.go). An
	// unfinished transaction was rolled back above — for its client the
	// commit record never became durable, so "aborted" is the truth, not a
	// guess.
	for _, t := range a.order {
		c.txlog.record(t.g, t.cts)
	}

	// Only now — every undo list empty — may readers resolve the dead node's
	// remaining unstamped versions as checkpoint-old (CSNMin): everything
	// younger was stamped or removed above.
	c.members.MarkRecovered(dead)
	c.store.LogTruncate(dead, c.store.LogDurableLSN(dead))
	c.store.UnfenceLog(dead)
	c.takeovers.Inc()
	c.noteTakeoverErr(dead, nil)
	c.takeoverDur.Observe(time.Since(start))
}

// recoverPeer is the takeover replay: a fenced dead node's durable redo
// stream is folded while its PLock fence is still up, and its fence set is
// rebuilt as storage images: stale DBP frames reclaimed, redo applied, the
// dead node's own versions settled by the fate rule. Returns the analysis
// for the engine-path finish.
func (n *Node) recoverPeer(dead common.NodeID) (*analysis, error) {
	c := n.c
	// Reclaim the fenced pages' DBP frames (flushing non-stale dirty state)
	// so the storage image is the single base the replay builds on.
	fence := c.fence(dead)
	c.bufSrv.Reclaim(fence)

	a, imgs := newAnalysis(dead), newPageImages(c.store)
	if err := a.replay(c.store, fence, imgs.redo); err != nil {
		return nil, err
	}
	// Folding the dead node's LLSNs into our counter keeps our future
	// records ordered after everything we replayed.
	n.llsn.Observe(a.maxLLSN)

	// Publish the repaired pages; peers fault them in from storage once the
	// fence lifts, which marks their versions unknown so that copies cached
	// before the dead node's last write refetch.
	imgs.settle(a, n.tf.LastGMV(), n.batchResolver)
	if err := imgs.writeBack(); err != nil {
		return nil, err
	}
	return a, nil
}

// stampPeerCTS stamps a committed transaction's surviving versions wherever
// its rows live now.
func (n *Node) stampPeerCTS(st *trxFate) {
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
			n.unloggedChange(ref.Page, ref.Opaque.(*bufferfusion.Frame))
		}
		n.releasePager(ref)
	}
}
