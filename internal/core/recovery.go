package core

import (
	"bytes"
	"errors"
	"fmt"

	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/page"
	"polardbmp/internal/storage"
	"polardbmp/internal/wal"
)

// One recovery (§4.4; §5.5 is the same rule run against DBP-warm pages). A
// crashed node's redo stream is read once: every page record is redone by the
// LLSN rule, and the transaction table folded from the same pass decides what
// each version the node left unstamped is worth. Restart, takeover and cold
// start differ only in where they replay (through PLock + LBP, or onto
// storage images) and in what "compensate" means there (DESIGN.md §17).

// trxFate is one transaction of a crashed node as its redo describes it.
type trxFate struct {
	g        common.GTrxID
	undo     []undoEntry // one per logged insert; compensate drains it
	finished bool        // a commit or abort record survived
	cts      common.CSN  // logged commit timestamp; 0 unless committed
}

// analysis is the transaction table of the crashed node whose stream was
// folded (node 0: every node, a cold start folds all streams).
type analysis struct {
	node    common.NodeID
	trxs    map[common.GTrxID]*trxFate
	order   []*trxFate // first-record order
	maxCTS  common.CSN
	maxLLSN common.LLSN
}

func newAnalysis(node common.NodeID) *analysis {
	return &analysis{node: node, trxs: make(map[common.GTrxID]*trxFate)}
}

// owns reports whether the folded redo speaks for node's transactions.
func (a *analysis) owns(node common.NodeID) bool { return a.node == 0 || a.node == node }

// fold reads next (a StreamReader's or MergeReader's Next) to the end of the
// durable redo, entering each record in the transaction table and then
// handing page records to redo. The table is entered first: redo may ask for
// the fate of the very version the record inserts.
func (a *analysis) fold(next func() (*wal.Record, error), redo func(*wal.Record) error) error {
	for {
		rec, err := next()
		if err != nil || rec == nil {
			return err
		}
		a.maxLLSN = max(a.maxLLSN, rec.LLSN)
		if !rec.Trx.Zero() && a.owns(rec.Trx.Node) {
			t := a.trxs[rec.Trx]
			if t == nil {
				t = &trxFate{g: rec.Trx}
				a.trxs[rec.Trx] = t
				a.order = append(a.order, t)
			}
			switch rec.Type {
			case wal.RecInsert:
				t.undo = append(t.undo, undoEntry{space: rec.Space, key: rec.Key})
			case wal.RecCommit:
				t.finished, t.cts = true, rec.CTS
				a.maxCTS = max(a.maxCTS, rec.CTS)
			case wal.RecAbort:
				t.finished = true
			}
		}
		switch rec.Type {
		case wal.RecInsert, wal.RecRollback, wal.RecPageImage:
			if err := redo(rec); err != nil {
				return err
			}
		}
	}
}

// fate is the one rule for a version its crashed writer g left unstamped:
// committed, it is worth its logged CTS; unfinished (or aborted with the
// compensation cut short), it is invisible — CSNMax — and must be
// compensated; absent from the retained log, g finished before the last
// checkpoint and the version is visible to all.
func (a *analysis) fate(g common.GTrxID) common.CSN {
	switch t := a.trxs[g]; {
	case t == nil:
		return common.CSNMin
	case t.cts != 0:
		return t.cts
	default:
		return common.CSNMax
	}
}

// unfinished lists the transactions left to compensate, in log order.
func (a *analysis) unfinished() []*trxFate {
	var out []*trxFate
	for _, t := range a.order {
		if !t.finished {
			out = append(out, t)
		}
	}
	return out
}

// trim applies the live path's purge to a page replay has grown past the
// split threshold: live purges are not logged, so redo onto an older base
// image can rebuild version chains longer than the page ever held. resolver
// builds the page's CTS resolver, only if the page needs trimming.
func trim(pg *page.Page, horizon common.CSN, resolver func(*page.Page) func(*page.Version) common.CSN) bool {
	return pg.SizeEstimate() > page.SplitThreshold && pg.Purge(horizon, resolver(pg)) > 0
}

// fence returns the pages node's crashed incarnation still holds in X: the
// only pages whose latest change may exist solely in its log, because
// flush-before-release pushed every other page before its X left the node.
// Restart and takeover replay exactly these.
func (c *Cluster) fence(node common.NodeID) []common.PageID {
	var out []common.PageID
	for pg, mode := range c.lockSrv.PLock.HeldBy(node) {
		if mode == lockfusion.ModeX {
			out = append(out, pg)
		}
	}
	return out
}

// replay folds a's node's durable redo stream into a, handing redo only the
// records on fence pages.
func (a *analysis) replay(store storage.API, fence []common.PageID, redo func(*wal.Record) error) error {
	in := make(map[common.PageID]bool, len(fence))
	for _, pg := range fence {
		in[pg] = true
	}
	sr := wal.NewStreamReader(store, a.node, store.LogStartLSN(a.node), 0)
	return a.fold(sr.Next, func(rec *wal.Record) error {
		if !in[rec.Page] {
			return nil
		}
		return redo(rec)
	})
}

// recoverSelf is the single-node restart driver (§5.5), in takeover's order:
// with the TIT recovery fence up and the node's pre-crash PLocks still
// fencing its pages, replay the fence set — most of it still in the DBP, so
// this rarely touches storage — publish it, lift the page fence, then roll
// back the node's uncommitted transactions and start serving.
func (n *Node) recoverSelf() error {
	// Refresh the global minimum view so replay-time purges have a real
	// bound (a fresh client still holds the initial sentinel).
	if _, err := n.tf.ReportMinView(); err != nil {
		return err
	}
	a := newAnalysis(n.id)
	if err := a.replay(n.c.store, n.c.fence(n.id), func(rec *wal.Record) error { return n.replayPage(rec, a) }); err != nil {
		return err
	}
	n.llsn.Observe(a.maxLLSN)
	for _, t := range a.order {
		// Defensive: the persisted watermark must already cover every
		// logged id.
		if uint64(t.g.Trx) >= n.trxCtr.Load() {
			n.trxCtr.Store(uint64(t.g.Trx) + 1)
		}
	}
	// Publish every recovered page, then lift the page fence: the pages are
	// consistent, and from here they move by the normal protocol.
	if err := n.lbp.FlushAll(); err != nil {
		return err
	}
	n.pl.ReleaseAll()
	n.c.lockSrv.DropNodePLock(uint16(n.id))

	// Compensate through the normal engine path (rows may have migrated to
	// other pages since). Rows on pages fenced by ANOTHER crashed node cannot
	// be reached yet; they are retried in the background, and our TIT fence
	// stays up so the affected transactions keep resolving as active in the
	// meantime.
	left := n.compensate(a.unfinished())
	n.wal.Sync(n.wal.End())
	// Re-seed the recycle floor in case the log scan bumped the id counter
	// past the persisted watermark: pre-crash ids below the counter are all
	// resolved by this recovery and would otherwise pin the floor forever.
	n.tf.InitTrxFloor(common.TrxID(n.trxCtr.Load()))
	n.deferredRollbacks.Store(true)
	n.whenDrained(left, func() {
		n.wal.Sync(n.wal.End())
		n.tf.SetRecovering(false)
		n.deferredRollbacks.Store(false)
	})
	n.startBackground()
	return nil
}

// replayPage is the restart replay target: rec, a record on a fence page, is
// applied to its page if the page's LLSN shows the change is missing. The
// page is reached through the normal PLock + LBP path: the crashed
// incarnation's X is idempotently re-granted to us at once, and keeps
// fencing the page against other nodes.
func (n *Node) replayPage(rec *wal.Record, a *analysis) error {
	if err := n.pl.Acquire(rec.Page, lockfusion.ModeX); err != nil {
		return err
	}
	defer n.pl.Release(rec.Page)
	f, err := n.lbp.Get(rec.Page)
	if err != nil {
		if rec.Type == wal.RecPageImage && errors.Is(err, common.ErrNotFound) {
			// The page existed only in our lost memory; rebuild it
			// from the image record.
			pg, err := page.Unmarshal(rec.Image)
			if err != nil {
				return err
			}
			f, err := n.lbp.NewPage(pg)
			if err != nil {
				return err
			}
			n.lbp.Unpin(f)
			return nil
		}
		return err
	}
	defer n.lbp.Unpin(f)
	f.Mu.Lock()
	defer f.Mu.Unlock()
	var applied bool
	if applyRecord(f.Pg, rec, &applied); !applied {
		return nil
	}
	f.Dirty = true
	// Foreign versions go through the page-scoped vectored resolver; our own
	// pre-crash ones take their fate from the table folded so far. Every own
	// version on a page this record applies to was inserted by a record
	// earlier in the stream (the page left and re-entered this node under X
	// PLocks in between), so its writer is in the table unless it predates
	// the retained log; an outcome still ahead in the stream reads as
	// unfinished, which only keeps more history.
	trim(f.Pg, n.tf.LastGMV(), func(pg *page.Page) func(*page.Version) common.CSN {
		batch := n.batchResolver(pg)
		return func(v *page.Version) common.CSN {
			if v.Trx.Node == n.id && v.CTS == common.CSNInit && !v.Trx.Zero() {
				return a.fate(v.Trx)
			}
			return batch(v)
		}
	})
	return nil
}

// applyRecord applies rec to pg when rec.LLSN > pg.LLSN (replay idempotence
// rule of §4.4). dirty is set when the page changed.
func applyRecord(pg *page.Page, rec *wal.Record, dirty *bool) {
	if rec.LLSN <= pg.LLSN {
		return
	}
	switch rec.Type {
	case wal.RecInsert:
		pg.InsertVersion(rec.Key, page.Version{
			Trx:     rec.Trx,
			CTS:     common.CSNInit,
			Deleted: rec.Deleted,
			Value:   append([]byte(nil), rec.Value...),
		})
		pg.LLSN = rec.LLSN
	case wal.RecRollback:
		pg.RollbackVersion(rec.Key, rec.Trx)
		pg.LLSN = rec.LLSN
	case wal.RecPageImage:
		img, err := page.Unmarshal(rec.Image)
		if err == nil {
			*pg = *img
		}
	default:
		return
	}
	*dirty = true
}

// pageImages is the storage replay target, for pages no live buffer pool can
// hold: a dead peer's fence set (takeover) or every page (cold start). Images
// are loaded from storage on first touch, redone in memory, settled by the
// fate rule and written back if they changed.
type pageImages struct {
	store storage.API
	pages map[common.PageID]*page.Page
	dirty map[common.PageID]bool
}

func newPageImages(store storage.API) *pageImages {
	return &pageImages{store: store, pages: make(map[common.PageID]*page.Page), dirty: make(map[common.PageID]bool)}
}

// load returns id's image; with create set a page storage has never seen
// starts empty (its first record is the creation image).
func (s *pageImages) load(id common.PageID, space common.SpaceID, create bool) (*page.Page, error) {
	if pg, ok := s.pages[id]; ok {
		return pg, nil
	}
	var pg *page.Page
	img, err := s.store.ReadPage(id)
	switch {
	case err == nil:
		if pg, err = page.Unmarshal(img); err != nil {
			return nil, err
		}
	case create && errors.Is(err, common.ErrNotFound):
		pg = page.New(id, space, page.TypeLeaf)
	default:
		return nil, err
	}
	s.pages[id] = pg
	return pg, nil
}

// redo applies one page record to its image by the LLSN rule.
func (s *pageImages) redo(rec *wal.Record) error {
	pg, err := s.load(rec.Page, rec.Space, rec.Type == wal.RecPageImage)
	if err != nil {
		return fmt.Errorf("recovery: page %d for record LLSN %d: %w", rec.Page, rec.LLSN, err)
	}
	d := s.dirty[rec.Page]
	applyRecord(pg, rec, &d)
	s.dirty[rec.Page] = d
	return nil
}

// settle gives every unstamped version the analysis speaks for its fate, in
// the image: stamped with the logged CTS or CSNMin, or — unfinished — removed,
// which on an image nobody else can reach is the whole compensation. Chains
// replay over-grew are then trimmed at horizon.
func (s *pageImages) settle(a *analysis, horizon common.CSN, resolver func(*page.Page) func(*page.Version) common.CSN) {
	for id, pg := range s.pages {
		rows := pg.Rows[:0]
		for ri := range pg.Rows {
			r := &pg.Rows[ri]
			keep := r.Versions[:0]
			for _, v := range r.Versions {
				if v.CTS == common.CSNInit && !v.Trx.Zero() && a.owns(v.Trx.Node) {
					s.dirty[id] = true
					if v.CTS = a.fate(v.Trx); v.CTS == common.CSNMax {
						continue
					}
				}
				keep = append(keep, v)
			}
			if r.Versions = keep; len(keep) > 0 {
				rows = append(rows, *r)
			}
		}
		pg.Rows = rows
		if trim(pg, horizon, resolver) {
			s.dirty[id] = true
		}
	}
}

// writeBack stores every image that changed.
func (s *pageImages) writeBack() error {
	for id, pg := range s.pages {
		if !s.dirty[id] {
			continue
		}
		img, err := pg.Marshal()
		if err != nil {
			return err
		}
		if err := s.store.WritePage(id, img); err != nil {
			return err
		}
	}
	return nil
}

// RecoverAll is the cold-start driver: it rebuilds the database from shared
// storage alone after a full-cluster crash (CrashAll). Every node's redo
// stream is merged in LLSN_bound order (§4.4) and applied to the storage page
// images; then every page is settled — with no node left, removing an
// unfinished transaction's versions wherever they sit is its rollback — the
// TSO is reseeded above the largest durable CTS, and the logs are truncated.
// Nodes are then re-added fresh by the caller.
func (c *Cluster) RecoverAll() error {
	if c.remote {
		return ErrNotHosted
	}
	err := c.recoverAll()
	// Recovery reseeds the TSO with a local write that bypasses the
	// replicated path; re-baseline the follower mirrors on the result.
	c.pmfsRep.Resync()
	return err
}

func (c *Cluster) recoverAll() error {
	var readers []*wal.StreamReader
	for _, node := range c.store.LogNodes() {
		readers = append(readers, wal.NewStreamReader(c.store, node, c.store.LogStartLSN(node), 0))
	}
	a, imgs := newAnalysis(0), newPageImages(c.store)
	if err := a.fold(wal.NewMergeReader(readers...).Next, imgs.redo); err != nil {
		return err
	}
	// Unstamped versions outlive the log records that wrote them, on pages
	// this log never touched; settle those too, so recovered rows resolve
	// without any TIT.
	for _, id := range c.store.PageIDs() {
		if _, err := imgs.load(id, 0, false); err != nil {
			return err
		}
	}
	// With every version stamped and no transaction active, only each row's
	// newest committed version is reachable.
	stamped := func(v *page.Version) common.CSN { return v.CTS }
	imgs.settle(a, a.maxCTS, func(*page.Page) func(*page.Version) common.CSN { return stamped })
	if err := imgs.writeBack(); err != nil {
		return err
	}
	c.txSrv.SetTSO(max(a.maxCTS, common.CSNMin))
	for _, node := range c.store.LogNodes() {
		c.store.LogTruncate(node, c.store.LogDurableLSN(node))
	}
	return nil
}

// VerifyTree walks a space's recovered tree in storage and checks ordering
// and leaf-chain invariants; a post-recovery diagnostic used by tests.
func VerifyTree(store storage.API, anchor common.PageID) (rows int, err error) {
	load := func(id common.PageID) (*page.Page, error) {
		img, err := store.ReadPage(id)
		if err != nil {
			return nil, err
		}
		return page.Unmarshal(img)
	}
	a, err := load(anchor)
	if err != nil {
		return 0, err
	}
	cur, err := load(a.ChildFor(nil))
	if err != nil {
		return 0, err
	}
	for cur.Type != page.TypeLeaf {
		child := cur.ChildFor(nil)
		if child == common.InvalidPageID {
			return 0, fmt.Errorf("verify: empty internal page %d", cur.ID)
		}
		if cur, err = load(child); err != nil {
			return 0, err
		}
	}
	var last []byte
	for {
		for i := range cur.Rows {
			if last != nil && bytes.Compare(cur.Rows[i].Key, last) <= 0 {
				return rows, fmt.Errorf("verify: key order violation on page %d", cur.ID)
			}
			last = cur.Rows[i].Key
			rows++
		}
		if cur.Next == common.InvalidPageID {
			return rows, nil
		}
		if cur, err = load(cur.Next); err != nil {
			return rows, err
		}
	}
}
