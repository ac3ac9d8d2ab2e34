package core

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"polardbmp/internal/btree"
	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/page"
	"polardbmp/internal/trace"
	"polardbmp/internal/wal"
)

// MaxRowSize bounds key+value so a single row can never overflow a page
// even with a short version chain.
const MaxRowSize = 3 * 1024

// Isolation selects the transaction's snapshot behaviour.
type Isolation uint8

const (
	// ReadCommitted takes a fresh read view per statement (the paper's
	// evaluation default, §5.1).
	ReadCommitted Isolation = iota
	// SnapshotIsolation fixes the read view at Begin.
	SnapshotIsolation
)

// Tx is a transaction bound to one node. A Tx must be used from a single
// goroutine, like database/sql.Tx.
type Tx struct {
	n    *Node
	g    common.GTrxID
	iso  Isolation
	view common.CSN // fixed view under SI (0 until first use)

	undo    []undoEntry
	touched []common.PageID // pages written, for commit-time CTS stamping
	writes  bool
	done    bool
	started time.Time

	// deadline is the transaction's total latency budget (zero = unbounded).
	// It bounds every blocking step — PLock queue waits, row-lock parks, DBP
	// fetches, retry backoff — and is checkpointed at statement entry and
	// around the commit pipeline.
	deadline common.Deadline

	cts common.CSN // set on a successful writing commit

	// occ is the staged write set, used only under the OCC engine (nil
	// under 2PL, where writes claim rows in the pages immediately).
	occ *occState

	// tr is the transaction's span trace (nil when tracing is off); trees
	// holds the private traced B-tree handles a traced transaction walks
	// instead of the node's shared ones.
	tr    *trace.TxTrace
	trees map[common.SpaceID]*btree.Tree
}

type undoEntry struct {
	space common.SpaceID
	key   []byte
}

// Begin starts a read-committed transaction.
func (n *Node) Begin() (*Tx, error) { return n.BeginIso(ReadCommitted) }

// BeginIso starts a transaction at the given isolation level.
func (n *Node) BeginIso(iso Isolation) (*Tx, error) {
	return n.BeginDeadline(iso, common.Deadline{})
}

// BeginDeadline starts a transaction with a total latency budget. Every
// blocking step charges against dl: PLock queue waits (the budget rides the
// acquire request so the SERVER bounds the wait), row-lock parks, DBP/storage
// fetches, retry backoff. Once the budget is spent the transaction fails
// with the non-retryable ErrDeadlineExceeded and must be rolled back. A zero
// dl is unbounded and stays on the allocation-free fast path.
func (n *Node) BeginDeadline(iso Isolation, dl common.Deadline) (*Tx, error) {
	start := time.Now()
	if err := dl.Err(); err != nil {
		return nil, fmt.Errorf("core: node %d begin: %w", n.id, err)
	}
	btok := n.tracer.Start()
	if !n.live.Load() {
		// A node that left via graceful drain keeps answering ErrDraining
		// (route elsewhere), not ErrNodeDown (crashed, recovery pending).
		if n.draining.Load() {
			return nil, fmt.Errorf("core: node %d: %w", n.id, common.ErrDraining)
		}
		return nil, fmt.Errorf("core: node %d: %w", n.id, common.ErrNodeDown)
	}
	// Admission handshake with DrainNode (a Dekker pair over seq-cst
	// atomics): register in activeTx BEFORE checking the drain flag, while
	// the drain sets the flag before reading activeTx. Either this Begin
	// sees the flag and refuses, or the drain's wait loop sees this
	// transaction and waits it out — a transaction can never slip past a
	// drain and then abort mid-flight for membership reasons.
	n.activeTx.Add(1)
	if n.draining.Load() {
		n.activeTx.Add(-1)
		return nil, fmt.Errorf("core: node %d: %w", n.id, common.ErrDraining)
	}
	if n.agent.Evicted() {
		n.activeTx.Add(-1)
		return nil, fmt.Errorf("core: node %d: %w", n.id, common.ErrStaleEpoch)
	}
	g, err := n.tf.Begin(n.nextTrx())
	if err != nil {
		// TIT exhaustion: refresh the global minimum view synchronously
		// (recycling committed slots) and retry once.
		if _, rerr := n.tf.ReportMinView(); rerr == nil {
			g, err = n.tf.Begin(n.nextTrx())
		}
		if err != nil {
			n.activeTx.Add(-1)
			return nil, err
		}
	}
	tx := &Tx{n: n, g: g, iso: iso, started: start, deadline: dl}
	if iso == SnapshotIsolation {
		csn, err := n.tf.CurrentReadCSN()
		if err != nil {
			n.tf.Finish(g)
			n.activeTx.Add(-1)
			return nil, err
		}
		tx.view = n.tf.OpenView(csn)
	}
	tx.tr = n.tracer.StartTx(g, start)
	tx.tr.Observe(trace.StageBegin, btok)
	return tx, nil
}

// GTrxID returns the transaction's global id (diagnostics).
func (tx *Tx) GTrxID() common.GTrxID { return tx.g }

// TxInfo is a transaction's introspection surface: identity, state, and —
// when tracing is on — its span timeline.
type TxInfo struct {
	GTrx    string    `json:"gtrx"`
	Node    uint16    `json:"node"`
	Started time.Time `json:"started"`
	Done    bool      `json:"done"`
	Writes  bool      `json:"writes"`
	// CTS is the commit timestamp (non-zero only after a successful
	// writing commit).
	CTS uint64 `json:"cts,omitempty"`
	// Trace is the span summary; nil when tracing is off.
	Trace *trace.TxSummary `json:"trace,omitempty"`
}

// Info returns the transaction's introspection snapshot. Valid before or
// after Commit/Rollback, from the transaction's own goroutine.
func (tx *Tx) Info() TxInfo {
	info := TxInfo{
		GTrx:    tx.g.String(),
		Node:    uint16(tx.g.Node),
		Started: tx.started,
		Done:    tx.done,
		Writes:  tx.writes,
		CTS:     uint64(tx.cts),
	}
	if tx.tr != nil {
		sum := tx.tr.Summary()
		info.Trace = &sum
	}
	return info
}

// tree returns the B-tree handle this transaction walks space through: the
// node's shared tree normally, a private tree over a pager of its own (same
// anchor, span recording on page access) when the transaction is traced or
// carries a deadline (the private pager threads the budget into PLock
// acquires and page fetches). Unbounded untraced transactions — the hot
// path — never leave the shared tree.
func (tx *Tx) tree(space common.SpaceID) (*btree.Tree, error) {
	t, err := tx.n.tree(space)
	if err != nil || (tx.tr == nil && tx.deadline.IsZero()) {
		return t, err
	}
	if pt := tx.trees[space]; pt != nil {
		return pt, nil
	}
	pt := btree.New(&pager{n: tx.n, tt: tx.tr, dl: tx.deadline}, space, t.Anchor())
	if tx.trees == nil {
		tx.trees = make(map[common.SpaceID]*btree.Tree)
	}
	tx.trees[space] = pt
	return pt, nil
}

// checkDeadline is the statement/commit checkpoint: once the budget is
// spent it counts the abort, marks the span timeline, and returns the
// non-retryable ErrDeadlineExceeded.
func (tx *Tx) checkDeadline() error {
	if !tx.deadline.Expired() {
		return nil
	}
	tx.n.DeadlineAborts.Inc()
	tok := tx.tr.Start()
	tx.tr.Mark(trace.StageDeadlineAbort, tok)
	return fmt.Errorf("core: tx %v: budget spent: %w", tx.g, common.ErrDeadlineExceeded)
}

// statementView returns the read view for one statement and a release func.
//
// A read-committed point read (point=true) gets a lazy view: the node's view
// bound — the largest value it has seen the TSO return or grant — stands in
// for a fresh TSO read, and lazy=true tells visibleValue to fetch the real
// timestamp only if the row cannot be decided without it. The bound is
// registered like any view, so it holds the global minimum view back. Scans
// and snapshot isolation read many rows under one timestamp and keep the
// fetched one; so does a node with no bound (see txfusion.Client.ViewBound).
func (tx *Tx) statementView(point bool) (view common.CSN, lazy bool, release func(), err error) {
	if tx.iso == SnapshotIsolation {
		return tx.view, false, func() {}, nil
	}
	tf := tx.n.tf
	var v common.CSN
	if point {
		v = tf.ViewBound()
		lazy = v != 0
	}
	if !lazy {
		if v, err = tf.CurrentReadCSN(); err != nil {
			return 0, false, nil, err
		}
	}
	tf.OpenView(v)
	return v, lazy, func() { tf.CloseView(v) }, nil
}

// visibleValue walks a version chain and returns the value visible to view
// (own writes always visible). The second result is false when no version
// is visible or the visible version is a tombstone. resolve maps a version
// to its effective CTS — n.resolveCTS for point lookups, a page-scoped
// batch resolver for scans.
//
// With lazy set, view is a lower bound on the TSO rather than a value read
// from it for this statement. The chain is read under the leaf's S PLock, so
// it holds every version committed so far: one committed at or below the
// bound is visible under whatever the TSO would return now, an own version is
// visible regardless, and a still-active one (CSNMax) is visible to nobody.
// Only a foreign version committed above the bound needs the real timestamp,
// which is fetched then, once; it is the sole source of an error.
func (tx *Tx) visibleValue(row *page.Row, view common.CSN, lazy bool, resolve func(*page.Version) common.CSN) ([]byte, bool, error) {
	if row == nil {
		return nil, false, nil
	}
	// A transaction's versions of one row are adjacent and share one fate, so
	// it is resolved once per walk: were its commit published between two
	// lookups, its newest version would be skipped as in flight and an older
	// one of its own — an intermediate write — returned as committed.
	var memoTrx common.GTrxID
	var memoCTS common.CSN
	for i := range row.Versions {
		v := &row.Versions[i]
		if v.Trx != tx.g {
			cts := memoCTS
			if v.Trx.Zero() || v.Trx != memoTrx {
				cts = resolve(v)
				memoTrx, memoCTS = v.Trx, cts
			}
			if lazy && cts > view && cts != common.CSNMax {
				var err error
				if view, err = tx.n.tf.CurrentReadCSN(); err != nil {
					return nil, false, err
				}
				lazy = false
			}
			if cts > view {
				continue
			}
		}
		if v.Deleted {
			return nil, false, nil
		}
		return append([]byte(nil), v.Value...), true, nil
	}
	return nil, false, nil
}

// Get returns the value of key under the transaction's isolation level, or
// ErrNotFound.
func (tx *Tx) Get(space common.SpaceID, key []byte) ([]byte, error) {
	if tx.done {
		return nil, common.ErrTxDone
	}
	if err := tx.checkDeadline(); err != nil {
		return nil, err
	}
	// Engine staging overlay: under OCC the transaction's own writes are
	// not in the pages yet; read-your-writes comes from the staged set.
	if val, deleted, ok := tx.n.c.cc.StagedRead(tx, space, key); ok {
		if deleted {
			return nil, fmt.Errorf("core: key %q: %w", key, common.ErrNotFound)
		}
		return val, nil
	}
	view, lazy, release, err := tx.statementView(true)
	if err != nil {
		return nil, err
	}
	defer release()
	t, err := tx.tree(space)
	if err != nil {
		return nil, err
	}
	ref, err := t.LeafSafe(key, lockfusion.ModeS)
	if err != nil {
		return nil, err
	}
	val, ok, err := tx.visibleValue(ref.Page.Find(key), view, lazy, tx.n.resolveCTS)
	tx.n.releasePager(ref)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: key %q: %w", key, common.ErrNotFound)
	}
	return val, nil
}

// GetForUpdate returns the latest committed value of key and leaves the row
// X-locked by this transaction (SELECT ... FOR UPDATE): it waits out any
// active writer, then claims the row lock by prepending a version that
// carries the same value. Read-modify-write sequences use it to avoid the
// read-committed lost-update anomaly.
func (tx *Tx) GetForUpdate(space common.SpaceID, key []byte) ([]byte, error) {
	if tx.done {
		return nil, common.ErrTxDone
	}
	if err := tx.write(space, key, nil, opLockRow); err != nil {
		return nil, err
	}
	// The row is now locked by us; its pre-lock value was copied into the
	// version we just wrote.
	return tx.Get(space, key)
}

// KV is a key/value pair returned by Scan.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit visible rows with from <= key < to (to==nil means
// unbounded), in key order, under one statement view.
func (tx *Tx) Scan(space common.SpaceID, from, to []byte, limit int) ([]KV, error) {
	if tx.done {
		return nil, common.ErrTxDone
	}
	if err := tx.checkDeadline(); err != nil {
		return nil, err
	}
	view, _, release, err := tx.statementView(false)
	if err != nil {
		return nil, err
	}
	defer release()
	t, err := tx.tree(space)
	if err != nil {
		return nil, err
	}
	// Engine staging overlay: staged writes in range shadow (or extend)
	// what the pages hold. When the overlay is empty — always, under 2PL —
	// the walk honours limit directly; otherwise the walk covers the whole
	// range and the merge truncates.
	staged := tx.n.c.cc.StagedRange(tx, space, from, to)
	pageLimit := limit
	if len(staged) > 0 {
		pageLimit = 0
	}
	ref, err := t.LeafSafe(from, lockfusion.ModeS)
	if err != nil {
		return nil, err
	}
	var out []KV
	for ref != nil {
		start, _ := ref.Page.Search(from)
		// One vectored TIT exchange resolves every unstamped version on
		// the leaf before the row loop starts.
		resolve := tx.n.batchResolver(ref.Page)
		for i := start; i < len(ref.Page.Rows); i++ {
			row := &ref.Page.Rows[i]
			if to != nil && bytes.Compare(row.Key, to) >= 0 {
				tx.n.releasePager(ref)
				return mergeStaged(out, staged, limit), nil
			}
			if val, ok, _ := tx.visibleValue(row, view, false, resolve); ok {
				out = append(out, KV{Key: append([]byte(nil), row.Key...), Value: val})
				if pageLimit > 0 && len(out) >= pageLimit {
					tx.n.releasePager(ref)
					return out, nil
				}
			}
		}
		ref, err = t.Next(ref, lockfusion.ModeS)
		if err != nil {
			return mergeStaged(out, staged, limit), err
		}
	}
	return mergeStaged(out, staged, limit), nil
}

// mergeStaged overlays a transaction's staged writes onto one scan's page
// results (both key-sorted): a staged entry replaces the page row of the
// same key (dropped when it is a staged delete) and staged-only keys are
// spliced in, then the merge is truncated to limit. A nil overlay — the 2PL
// engine, or an OCC transaction with no staged write in range — returns rows
// unchanged.
func mergeStaged(rows []KV, staged []stagedKV, limit int) []KV {
	if len(staged) == 0 {
		return rows
	}
	out := make([]KV, 0, len(rows)+len(staged))
	i, j := 0, 0
	for i < len(rows) || j < len(staged) {
		var cmp int
		switch {
		case i >= len(rows):
			cmp = 1
		case j >= len(staged):
			cmp = -1
		default:
			cmp = bytes.Compare(rows[i].Key, staged[j].key)
		}
		switch {
		case cmp < 0:
			out = append(out, rows[i])
			i++
		case cmp > 0:
			s := staged[j]
			j++
			if !s.deleted {
				out = append(out, KV{
					Key:   append([]byte(nil), s.key...),
					Value: append([]byte(nil), s.value...),
				})
			}
		default:
			s := staged[j]
			i++
			j++
			if !s.deleted {
				out = append(out, KV{Key: rows[i-1].Key, Value: append([]byte(nil), s.value...)})
			}
		}
		if limit > 0 && len(out) >= limit {
			return out[:limit]
		}
	}
	return out
}

// writeOp discriminates the three mutations.
type writeOp uint8

const (
	opInsert writeOp = iota
	opUpdate
	opDelete
)

// Insert adds a row; ErrKeyExists if a visible (committed-latest or own)
// live row already exists.
func (tx *Tx) Insert(space common.SpaceID, key, value []byte) error {
	return tx.write(space, key, value, opInsert)
}

// Update replaces a row's value; ErrNotFound if no live row exists.
func (tx *Tx) Update(space common.SpaceID, key, value []byte) error {
	return tx.write(space, key, value, opUpdate)
}

// Delete removes a row (tombstone); ErrNotFound if no live row exists.
func (tx *Tx) Delete(space common.SpaceID, key []byte) error {
	return tx.write(space, key, nil, opDelete)
}

// Upsert inserts or replaces unconditionally.
func (tx *Tx) Upsert(space common.SpaceID, key, value []byte) error {
	return tx.write(space, key, value, opUpsert)
}

const (
	opUpsert  writeOp = 3
	opLockRow writeOp = 4
)

// write runs the shared statement preconditions and dispatches the mutation
// to the cluster's concurrency-control engine: 2PL claims the row now under
// the X leaf (twopl.go), OCC stages it until commit (occ.go).
func (tx *Tx) write(space common.SpaceID, key, value []byte, op writeOp) error {
	if tx.done {
		return common.ErrTxDone
	}
	if len(key) == 0 {
		return fmt.Errorf("core: empty key")
	}
	if len(key)+len(value) > MaxRowSize {
		return fmt.Errorf("core: row of %d bytes exceeds MaxRowSize %d", len(key)+len(value), MaxRowSize)
	}
	if err := tx.checkDeadline(); err != nil {
		return err
	}
	return tx.n.c.cc.Write(tx, space, key, value, op)
}

// mutate applies one logged version-prepend under the held X leaf.
func (tx *Tx) mutate(ref *btree.Ref, frame *bufferfusion.Frame, space common.SpaceID, key, value []byte, deleted bool) {
	n := tx.n
	llsn := n.llsn.Next()
	ref.Page.InsertVersion(key, page.Version{
		Trx:     tx.g,
		CTS:     common.CSNInit,
		Deleted: deleted,
		Value:   append([]byte(nil), value...),
	})
	ref.Page.LLSN = llsn
	end := n.wal.Append(&wal.Record{
		Type:    wal.RecInsert,
		Node:    n.id,
		LLSN:    llsn,
		Trx:     tx.g,
		Page:    ref.Page.ID,
		Space:   space,
		Key:     key,
		Deleted: deleted,
		Value:   value,
	})
	frame.Dirty = true
	if end > frame.FlushLSN {
		frame.FlushLSN = end
	}
	tx.undo = append(tx.undo, undoEntry{space: space, key: append([]byte(nil), key...)})
	tx.touched = append(tx.touched, ref.Page.ID)
	tx.writes = true
}

// Commit makes the transaction durable and visible: run the engine's
// commit-time work (OCC validation + apply; none under 2PL), then the shared
// pipeline — fetch a CTS from the TSO (one-sided fetch-add), force the redo
// log through the commit record, publish the CTS in the TIT slot, best-effort
// stamp rows still cached, and notify Lock Fusion if a waiter flagged us
// (§4.1, §4.3.2).
func (tx *Tx) Commit() error {
	if tx.done {
		return common.ErrTxDone
	}
	tx.finish()
	defer tx.n.activeTx.Add(-1)
	n := tx.n
	if !tx.writes {
		// Journal the trivial commit too: a client resolving an ambiguous
		// read-only commit gets "committed" (CSNMin: visible to all), not
		// an unresolvable recycled slot.
		n.c.txlog.record(tx.g, common.CSNMin)
		n.tf.Finish(tx.g)
		n.Commits.Inc()
		n.TxLatency.Observe(time.Since(tx.started))
		n.tracer.FinishTx(tx.tr, 0, true)
		return nil
	}
	// Deadline checkpoint: a transaction whose budget is already spent must
	// not start the commit pipeline (TSO grant, log force) it cannot afford.
	if err := tx.checkDeadline(); err != nil {
		tx.rollbackLocked()
		return err
	}
	// Lease self-check: a slow-but-alive node that lost its lease has been
	// taken over — its in-flight writes are already resolved by a survivor,
	// so publishing this commit would fork history. Abort instead.
	if err := n.leaseCheck(); err != nil {
		tx.rollbackLocked()
		return err
	}
	// Engine commit work: under OCC this validates the staged set and
	// applies it to the pages (populating tx.undo); a conflict aborts with
	// nothing applied, so the rollback is a pure TIT release.
	if err := n.c.cc.Prepare(tx); err != nil {
		tx.rollbackLocked()
		return err
	}
	return tx.commitPipeline()
}

// commitPipeline is the engine-independent commit tail: TSO grant, commit
// record force (the durability point), TIT publish, CTS stamping. Waiters
// are notified right after the TIT publish — before stamping — so a parked
// writer resumes while this committer is still walking its touched pages
// (the waiter's own resolveCTS finds the published CTS through the TIT).
func (tx *Tx) commitPipeline() error {
	n := tx.n
	ttok := tx.tr.Start()
	cts, grouped, err := n.tf.NextCommitCSNEx()
	if err != nil {
		// Cannot reach the TSO (PMFS partition/crash): the transaction
		// cannot commit; roll it back.
		tx.rollbackLocked()
		return err
	}
	// Post-grant checkpoint: the flat-combined TSO round may have stalled
	// past the budget (the leader retries on behalf of the whole group).
	// Aborting here wastes one CSN — timestamps need only be monotonic, not
	// dense — and keeps the overrun bounded before the log force.
	if err := tx.checkDeadline(); err != nil {
		tx.rollbackLocked()
		return err
	}
	if grouped {
		n.TSOGroup.Inc()
		tx.tr.Mark(trace.StageTSOGroup, ttok)
	} else {
		n.TSOSolo.Inc()
		tx.tr.Mark(trace.StageTSOSolo, ttok)
	}
	atok := tx.tr.Start()
	end := n.wal.Append(&wal.Record{Type: wal.RecCommit, Node: n.id, LLSN: n.llsn.Next(), Trx: tx.g, CTS: cts})
	tx.tr.Mark(trace.StageLogAppend, atok)
	stok := tx.tr.Start()
	n.wal.Sync(end) // durability point (group-committed)
	tx.tr.Mark(trace.StageLogSync, stok)
	if n.wal.Durable() < end {
		// The stream was fenced or closed under us (a survivor began
		// takeover between the lease check and the sync): the commit
		// record is not durable and must not be published.
		tx.rollbackLocked()
		if n.agent.Evicted() {
			return fmt.Errorf("core: node %d commit: %w", n.id, common.ErrStaleEpoch)
		}
		return fmt.Errorf("core: node %d commit: %w", n.id, common.ErrNodeDown)
	}
	waiters, err := n.tf.Commit(tx.g, cts)
	if err != nil {
		n.tracer.FinishTx(tx.tr, 0, false)
		return err
	}
	// The commit record is durable and the CTS published: journal the
	// outcome so a client that lost its connection mid-commit can resolve
	// the ambiguity (txstatus.go) even after the TIT slot recycles.
	n.c.txlog.record(tx.g, cts)
	if waiters {
		n.rl.NotifyCommitted(tx.g)
	}
	if !n.c.cfg.DisableCTSStamp {
		ctok := tx.tr.Start()
		tx.stampCTS(cts)
		tx.tr.Observe(trace.StageCTSStamp, ctok)
	}
	tx.cts = cts
	n.Commits.Inc()
	n.TxLatency.Observe(time.Since(tx.started))
	n.tracer.FinishTx(tx.tr, cts, true)
	return nil
}

// stampCTS fills the CTS of this transaction's versions on pages still
// cached and locally lockable — the §4.1 fast path sparing readers the TIT
// lookup. Best-effort: pages gone from the LBP (or whose PLock left the
// node) are skipped. All stamped (and still-dirty) pages are then pushed to
// the DBP through ONE vectored write: the commit record is already durable,
// so the covering log force is free, and a later revoke finds the pages
// clean — the transfer flush moves off the waiter's critical path onto the
// committer's already-paid one.
func (tx *Tx) stampCTS(cts common.CSN) {
	n := tx.n
	seen := make(map[common.PageID]bool, len(tx.touched))
	var push []common.PageID
	for _, pg := range tx.touched {
		if seen[pg] {
			continue
		}
		seen[pg] = true
		// Only stamp where the X PLock is already held by this node
		// (lazy retention makes this the common case); a remote
		// acquisition just to stamp would cost more than it saves.
		if n.pl.HeldMode(pg) != lockfusion.ModeX {
			continue
		}
		if err := n.pl.Acquire(pg, lockfusion.ModeX); err != nil {
			continue
		}
		f, err := n.lbp.Get(pg)
		if err != nil {
			n.pl.Release(pg)
			continue
		}
		f.Mu.Lock()
		if f.Pg.StampCTS(tx.g, cts) > 0 {
			n.unloggedChange(f.Pg, f)
		}
		dirty := f.Dirty
		f.Mu.Unlock()
		n.lbp.Unpin(f)
		if dirty && n.pl.RevokePending(pg) {
			// A peer is waiting on this page: push it now, off the
			// waiter's critical path. Keep the PLock reference until
			// the batched push below — peers must not read these
			// frames mid-batch. Uncontended dirty pages stay in the
			// LBP (pushing them would tax every commit for a transfer
			// nobody asked for).
			push = append(push, pg)
		} else {
			n.pl.Release(pg)
		}
	}
	if len(push) > 0 {
		_ = n.lbp.PushMany(push) // best-effort; failures stay dirty for revoke flush
		for _, pg := range push {
			n.pl.Release(pg)
		}
	}
}

// Rollback undoes the transaction: each written version is removed (logged
// as a compensation record) and the TIT slot is freed.
func (tx *Tx) Rollback() error {
	if tx.done {
		return common.ErrTxDone
	}
	tx.finish()
	defer tx.n.activeTx.Add(-1)
	tx.rollbackLocked()
	return nil
}

// finish closes the transaction to further calls at the entry of Commit or
// Rollback. It does not release activeTx: admitted means counted until
// Commit/Rollback returns, because DrainNode and Checkpoint read the count to
// decide the node is quiet, and a commit between its entry and its TIT
// publish is not.
func (tx *Tx) finish() {
	tx.done = true
	if tx.iso == SnapshotIsolation {
		tx.n.tf.CloseView(tx.view)
	}
}

func (tx *Tx) rollbackLocked() {
	n := tx.n
	// Journal before the TIT slot is freed: once Finish recycles it, the
	// journal is the only witness that this was an abort, not a commit.
	n.c.txlog.record(tx.g, 0)
	left := n.compensate([]*trxFate{{g: tx.g, undo: tx.undo}})
	if len(left) > 0 {
		// Some pages were unreachable (a peer's crash fence or a network
		// partition): their versions are still on the pages, uncompensated.
		// Writers that hit them wait on the still-active TIT slot and
		// readers resolve them CSNMax (invisible), so finishing in the
		// background is safe — just slow for those rows until the fault
		// heals.
		n.DeferredAborts.Inc()
	}
	n.whenDrained(left, func() {
		if n.tf.Finish(tx.g) {
			n.rl.NotifyCommitted(tx.g)
		}
	})
	n.Aborts.Inc()
	n.tracer.FinishTx(tx.tr, 0, false)
}

// rollbackRetry paces the background compensation of entries whose pages were
// unreachable.
const rollbackRetry = 20 * time.Millisecond

// compensate is one pass of the one compensation loop: it removes what each
// unfinished transaction in txs left on the pages it can reach, logs the
// RecAbort of every transaction whose undo list drained, and returns the
// rest. A transaction is finished only when nothing is left: until then its
// RecAbort is withheld — after a crash the log must show it as unfinished so
// the next recovery redoes the compensation itself — and whatever makes its
// versions invisible (the TIT slot, the recovery fence, the Fenced
// membership slot) must stay up, because the released state resolves CSNMin
// and would publish the rolled-back writes the moment the fault heals.
func (n *Node) compensate(txs []*trxFate) []*trxFate {
	var left []*trxFate
	for _, t := range txs {
		if t.undo = n.rollbackEntries(t.g, t.undo); len(t.undo) > 0 {
			left = append(left, t)
			continue
		}
		n.wal.Append(&wal.Record{Type: wal.RecAbort, Node: n.id, LLSN: n.llsn.Next(), Trx: t.g})
	}
	return left
}

// whenDrained calls release once every transaction in left is compensated:
// at once when left is empty, otherwise from a background retry that stops
// with the node (release then never runs: the crash recovery that follows
// starts over from the log).
func (n *Node) whenDrained(left []*trxFate, release func()) {
	if len(left) == 0 {
		release()
		return
	}
	n.bgDone.Add(1)
	n.compensating.Add(1)
	go func() {
		defer n.bgDone.Done()
		defer n.compensating.Add(-1)
		for n.live.Load() {
			if left = n.compensate(left); len(left) == 0 {
				release()
				return
			}
			select {
			case <-n.stopBG:
				return
			case <-time.After(rollbackRetry):
			}
		}
	}()
}

// rollbackEntries removes g's newest versions for the given undo entries in
// reverse order, logging compensation records. Entries whose pages are
// currently unreachable (fenced by another crashed node, partitioned away)
// are returned for retry.
func (n *Node) rollbackEntries(g common.GTrxID, undo []undoEntry) []undoEntry {
	var unreachable []undoEntry
	for i := len(undo) - 1; i >= 0; i-- {
		e := undo[i]
		t, err := n.tree(e.space)
		if err != nil {
			continue
		}
		ref, err := t.LeafSafe(e.key, lockfusion.ModeX)
		if err != nil {
			// Any failure to reach the page leaves its version
			// uncompensated; the entry MUST come back for retry, because
			// the caller frees the TIT slot only once the list drains and
			// a freed slot flips the leaked version to "committed".
			// ErrUnreachable/ErrNodeDown (partition, dead peer) are not in
			// IsRetryable — they still heal: partitions mend and dead
			// peers are taken over.
			if common.IsRetryable(err) || errors.Is(err, common.ErrUnreachable) ||
				errors.Is(err, common.ErrNodeDown) || errors.Is(err, common.ErrInjected) {
				unreachable = append(unreachable, e)
			}
			continue
		}
		if ref.Page.RollbackVersion(e.key, g) {
			llsn := n.llsn.Next()
			ref.Page.LLSN = llsn
			end := n.wal.Append(&wal.Record{
				Type:  wal.RecRollback,
				Node:  n.id,
				LLSN:  llsn,
				Trx:   g,
				Page:  ref.Page.ID,
				Space: e.space,
				Key:   e.key,
			})
			f := ref.Opaque.(*bufferfusion.Frame)
			f.Dirty = true
			if end > f.FlushLSN {
				f.FlushLSN = end
			}
		}
		n.releasePager(ref)
	}
	return unreachable
}
