package core

import (
	"fmt"

	"polardbmp/internal/btree"
	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/page"
	"polardbmp/internal/trace"
	"polardbmp/internal/wal"
)

// pager adapts a Node to btree.Pager: every page access stacks the PLock
// (inter-node), the LBP fetch with coherence (Buffer Fusion), and the frame
// latch (intra-node), in that order; LLSNs of read pages fold into the
// node's counter (§4.4).
//
// The node's shared trees walk through a pager with no trace and no
// deadline. A traced or deadline-bounded transaction builds private trees
// (btree.Tree is stateless) over a pager carrying its own: the expensive
// events — remote PLock fetches, DBP page transfers, storage fills — are
// recorded as spans on the transaction's timeline, and the budget rides
// into the PLock acquire (bounding the server-side queue wait) and the page
// fetch (bounding verbs, retries, and storage reads). Fast local grants and
// LBP hits are deliberately NOT recorded as spans (they would flood the
// bounded span list during scans); they still land in the node's stage
// aggregates via the subsystem hooks.
type pager struct {
	n  *Node
	tt *trace.TxTrace // nil = untraced (every TxTrace method is nil-safe)
	dl common.Deadline
}

// Acquire implements btree.Pager.
func (p *pager) Acquire(pg common.PageID, mode lockfusion.Mode) (*btree.Ref, error) {
	n := p.n
	tok := p.tt.Start()
	remote, err := n.pl.AcquireDeadlineEx(pg, mode, p.dl)
	if err != nil {
		return nil, err
	}
	if remote {
		p.tt.Mark(trace.StagePLockRemote, tok)
	}
	tok = p.tt.Start()
	f, kind, err := n.lbp.GetDeadlineEx(pg, p.dl)
	if err != nil {
		n.pl.Release(pg)
		return nil, err
	}
	switch kind {
	case bufferfusion.FetchDBP:
		p.tt.Mark(trace.StageFrameDBP, tok)
	case bufferfusion.FetchStorage:
		p.tt.Mark(trace.StageFrameStorage, tok)
	}
	if mode == lockfusion.ModeX {
		f.Mu.Lock()
	} else {
		f.Mu.RLock()
	}
	// Read f.Pg only under the latch: a concurrent coherence refresh may
	// have replaced the decoded page.
	n.llsn.Observe(f.Pg.LLSN)
	return &btree.Ref{Page: f.Pg, Mode: mode, Opaque: f}, nil
}

// Release implements btree.Pager.
func (p *pager) Release(ref *btree.Ref) { p.n.releasePager(ref) }

// releasePager releases a btree ref: latch, pin, then PLock.
func (n *Node) releasePager(ref *btree.Ref) {
	f := ref.Opaque.(*bufferfusion.Frame)
	if ref.Mode == lockfusion.ModeX {
		f.Mu.Unlock()
	} else {
		f.Mu.RUnlock()
	}
	id := f.ID()
	n.lbp.Unpin(f)
	n.pl.Release(id)
}

// AllocPage implements btree.Pager: a fresh page, X-locked, latched, dirty.
func (p *pager) AllocPage(space common.SpaceID, t page.Type, level uint8) (*btree.Ref, error) {
	n := p.n
	id := n.c.store.AllocPage()
	if err := n.pl.Acquire(id, lockfusion.ModeX); err != nil {
		return nil, err
	}
	pg := page.New(id, space, t)
	pg.Level = level
	f, err := n.lbp.NewPage(pg)
	if err != nil {
		n.pl.Release(id)
		return nil, err
	}
	f.Mu.Lock()
	return &btree.Ref{Page: f.Pg, Mode: lockfusion.ModeX, Opaque: f}, nil
}

// LogImage implements btree.Pager: physical logging for SMOs and page
// creation. The caller holds the page in X.
func (p *pager) LogImage(ref *btree.Ref) {
	n := p.n
	llsn := n.llsn.Next()
	ref.Page.LLSN = llsn
	img, err := ref.Page.Marshal()
	if err != nil {
		// Only a missed split or an over-large row can get here; both
		// are engine bugs, not runtime conditions.
		panic(fmt.Sprintf("core: node %d: %v", n.id, err))
	}
	end := n.wal.Append(&wal.Record{
		Type:  wal.RecPageImage,
		Node:  n.id,
		LLSN:  llsn,
		Page:  ref.Page.ID,
		Space: ref.Page.Space,
		Image: img,
	})
	f := ref.Opaque.(*bufferfusion.Frame)
	f.Dirty = true
	if end > f.FlushLSN {
		f.FlushLSN = end
	}
}
