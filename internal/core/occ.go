package core

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/page"
)

// occEngine is the optimistic engine (DESIGN.md §14): statements never take
// X leaf PLocks and never wait on row locks. A write is staged in the
// transaction's private write set after a one-sided S-mode existence read;
// Prepare then revalidates every staged row under X leaf PLocks acquired in
// global (space,key) order — a row whose newest version changed since
// staging, or whose writer is still in flight, fails with the retryable
// common.ErrWriteConflict (first-updater-wins, matching how Aurora-MM
// surfaces conflicts) — and applies the set through the same logged
// version-prepend as 2PL. The shared commit pipeline then makes it durable.
//
// Statements are therefore pure one-sided reads (leaf fetch + TIT lookups);
// all write-side fabric traffic concentrates at commit.
type occEngine struct{}

func (occEngine) Name() string { return CCOCC }

// occWrite is one staged mutation plus the validation fingerprint taken at
// stage time: the identity of the row's newest version (zero GTrxID for an
// absent row) and whether that version's writer was still active.
type occWrite struct {
	value   []byte
	deleted bool
	// baseTrx identifies the row's head version when the write was staged;
	// commit-time validation fails if the head changed.
	baseTrx common.GTrxID
	// baseActive records a foreign in-flight head at stage time. Such a
	// write always conflicts: even if the writer commits (head identity
	// unchanged), our value was derived from the version beneath it and
	// applying would lose its update.
	baseActive bool
}

// occState is a transaction's staged write set, keyed by space then key.
type occState struct {
	set   map[common.SpaceID]map[string]*occWrite
	count int
}

func (tx *Tx) occState() *occState {
	if tx.occ == nil {
		tx.occ = &occState{set: make(map[common.SpaceID]map[string]*occWrite)}
	}
	return tx.occ
}

func (st *occState) get(space common.SpaceID, key []byte) *occWrite {
	if st == nil {
		return nil
	}
	return st.set[space][string(key)]
}

func (st *occState) put(space common.SpaceID, key []byte, w *occWrite) {
	m := st.set[space]
	if m == nil {
		m = make(map[string]*occWrite)
		st.set[space] = m
	}
	m[string(key)] = w
	st.count++
}

func (occEngine) StagedRead(tx *Tx, space common.SpaceID, key []byte) ([]byte, bool, bool) {
	w := tx.occ.get(space, key)
	if w == nil {
		return nil, false, false
	}
	return append([]byte(nil), w.value...), w.deleted, true
}

func (occEngine) StagedRange(tx *Tx, space common.SpaceID, from, to []byte) []stagedKV {
	if tx.occ == nil {
		return nil
	}
	var out []stagedKV
	for k, w := range tx.occ.set[space] {
		key := []byte(k)
		if bytes.Compare(key, from) < 0 || (to != nil && bytes.Compare(key, to) >= 0) {
			continue
		}
		out = append(out, stagedKV{key: key, value: w.value, deleted: w.deleted})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].key, out[j].key) < 0 })
	return out
}

// Write stages one mutation. The existence check reads the row's newest
// settled (committed or own) version under an S leaf; no lock is taken and
// no waiting happens — a foreign in-flight head is simply fingerprinted and
// will conflict at Prepare.
func (occEngine) Write(tx *Tx, space common.SpaceID, key, value []byte, op writeOp) error {
	st := tx.occState()
	if w := st.get(space, key); w != nil {
		// Re-write of an already-staged key: existence semantics run
		// against the staged entry.
		exists := !w.deleted
		switch op {
		case opInsert:
			if exists {
				return fmt.Errorf("core: key %q: %w", key, common.ErrKeyExists)
			}
		case opUpdate, opDelete, opLockRow:
			if !exists {
				return fmt.Errorf("core: key %q: %w", key, common.ErrNotFound)
			}
		}
		if op != opLockRow {
			w.value = append([]byte(nil), value...)
			w.deleted = op == opDelete
		}
		return nil
	}
	t, err := tx.tree(space)
	if err != nil {
		return err
	}
	ref, err := t.LeafSafe(key, lockfusion.ModeS)
	if err != nil {
		return err
	}
	var (
		baseTrx    common.GTrxID
		baseActive bool
		exists     bool
		curVal     []byte
	)
	if row := ref.Page.Find(key); row != nil {
		if head := row.Head(); head != nil {
			baseTrx = head.Trx
			if head.Trx != tx.g && !head.Trx.Zero() && head.CTS == common.CSNInit &&
				tx.n.resolveCTS(head) == common.CSNMax {
				baseActive = true
			}
		}
		// Newest settled version decides existence and the opLockRow
		// value: skipping in-flight foreign heads keeps uncommitted data
		// out of GetForUpdate results.
		for i := range row.Versions {
			v := &row.Versions[i]
			if v.Trx != tx.g && v.CTS == common.CSNInit && tx.n.resolveCTS(v) == common.CSNMax {
				continue
			}
			if !v.Deleted {
				exists = true
				curVal = append([]byte(nil), v.Value...)
			}
			break
		}
	}
	tx.n.releasePager(ref)
	switch op {
	case opInsert:
		if exists {
			return fmt.Errorf("core: key %q: %w", key, common.ErrKeyExists)
		}
	case opUpdate, opDelete, opLockRow:
		if !exists {
			return fmt.Errorf("core: key %q: %w", key, common.ErrNotFound)
		}
	}
	if op == opLockRow {
		value = curVal
	}
	st.put(space, key, &occWrite{
		value:      append([]byte(nil), value...),
		deleted:    op == opDelete,
		baseTrx:    baseTrx,
		baseActive: baseActive,
	})
	tx.writes = true
	return nil
}

// Prepare validates and applies the staged set: rows are claimed one at a
// time in global (space,key) order — X leaf, fingerprint check, logged
// version-prepend, release. An applied prepend IS the row claim (other
// writers now see an in-flight foreign head), so the sequence is 2PL
// acquisition deferred to commit; it cannot deadlock because OCC never
// waits — a moved or in-flight head fails with the retryable
// common.ErrWriteConflict, and the caller's rollback compensates any rows
// already claimed. Claiming in sorted order keeps conflict cycles between
// concurrent committers deterministic (the lower-ordered one wins).
func (e occEngine) Prepare(tx *Tx) error {
	st := tx.occ
	if st == nil || st.count == 0 {
		return nil
	}
	type item struct {
		space common.SpaceID
		key   []byte
		w     *occWrite
	}
	items := make([]item, 0, st.count)
	for space, m := range st.set {
		for k, w := range m {
			items = append(items, item{space: space, key: []byte(k), w: w})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].space != items[j].space {
			return items[i].space < items[j].space
		}
		return bytes.Compare(items[i].key, items[j].key) < 0
	})
	conflict := func(key []byte) error {
		tx.n.Conflicts.Inc()
		return fmt.Errorf("core: occ validate key %q: %w", key, common.ErrWriteConflict)
	}

	for _, it := range items {
		t, err := tx.tree(it.space)
		if err != nil {
			return err
		}
		need := len(it.key) + len(it.w.value) + 64
		for attempt := 0; ; attempt++ {
			if attempt > 0 && attempt%64 == 0 {
				time.Sleep(time.Millisecond)
			}
			if err := tx.checkDeadline(); err != nil {
				return err
			}
			ref, err := t.LeafSafe(it.key, lockfusion.ModeX)
			if err != nil {
				return err
			}
			frame := ref.Opaque.(*bufferfusion.Frame)

			// Room for the prepend (same purge/split dance as 2PL).
			if ref.Page.SizeEstimate()+need > page.SplitThreshold {
				if ref.Page.Purge(tx.n.tf.LastGMV(), tx.n.batchResolver(ref.Page)) > 0 {
					tx.n.unloggedChange(ref.Page, frame)
				}
				if ref.Page.SizeEstimate()+need > page.SplitThreshold {
					if _, err := tx.n.tf.ReportMinView(); err == nil {
						if ref.Page.Purge(tx.n.tf.LastGMV(), tx.n.batchResolver(ref.Page)) > 0 {
							tx.n.unloggedChange(ref.Page, frame)
						}
					}
				}
				if ref.Page.SizeEstimate()+need > page.SplitThreshold {
					canSplit := len(ref.Page.Rows) >= 2
					tx.n.releasePager(ref)
					if !canSplit {
						time.Sleep(200 * time.Microsecond)
						continue
					}
					if err := t.SplitFor(it.key, need); err != nil {
						return err
					}
					continue
				}
			}

			// Validate: the head must be exactly the version fingerprinted
			// at stage time, and must not be a foreign writer still in
			// flight (OCC never waits — conflict and let the app retry).
			var head *page.Version
			if row := ref.Page.Find(it.key); row != nil {
				head = row.Head()
			}
			var cur common.GTrxID
			if head != nil {
				cur = head.Trx
			}
			if it.w.baseActive || cur != it.w.baseTrx {
				tx.n.releasePager(ref)
				return conflict(it.key)
			}
			if head != nil && head.Trx != tx.g && !head.Trx.Zero() && head.CTS == common.CSNInit &&
				tx.n.resolveCTS(head) == common.CSNMax {
				tx.n.releasePager(ref)
				return conflict(it.key)
			}
			tx.mutate(ref, frame, it.space, it.key, it.w.value, it.w.deleted)
			tx.n.releasePager(ref)
			break
		}
	}
	return nil
}
