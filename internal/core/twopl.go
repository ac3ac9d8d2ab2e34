package core

import (
	"errors"
	"fmt"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/page"
	"polardbmp/internal/trace"
)

// twoPL is the paper's pessimistic engine (§4.3.2): a write claims its row
// at statement time by prepending a version under the X leaf PLock, and
// conflicting writers wait through Lock Fusion. Commit needs no validation —
// every written row is already exclusively owned — so Prepare is a no-op and
// the commit pipeline runs directly.
type twoPL struct{}

func (twoPL) Name() string { return CC2PL }

// StagedRead: 2PL stages nothing — own writes live in the pages and are
// picked up by version-chain visibility (visibleValue treats own-trx
// versions as always visible).
func (twoPL) StagedRead(*Tx, common.SpaceID, []byte) ([]byte, bool, bool) {
	return nil, false, false
}

func (twoPL) StagedRange(*Tx, common.SpaceID, []byte, []byte) []stagedKV { return nil }

// Prepare: nothing to validate; row claims happened statement-time.
func (twoPL) Prepare(*Tx) error { return nil }

// Write implements the locking write path of §4.3.2: descend to the leaf
// under X PLock; if the row's newest version belongs to another active
// transaction, wait through Lock Fusion and retry; otherwise prepend the
// new version (writing our g_trx_id claims the row lock).
func (twoPL) Write(tx *Tx, space common.SpaceID, key, value []byte, op writeOp) error {
	t, err := tx.tree(space)
	if err != nil {
		return err
	}
	need := len(key) + len(value) + 64
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%64 == 0 {
			// Pathological contention (e.g. a holder mid-recovery):
			// back off instead of spinning on the fabric.
			time.Sleep(time.Millisecond)
		}
		ref, err := t.LeafSafe(key, lockfusion.ModeX)
		if err != nil {
			return err
		}
		frame := ref.Opaque.(*bufferfusion.Frame)

		// Make room first: purge dead versions (refreshing the global
		// minimum view synchronously if the stale one isn't enough),
		// then split if needed. A single hot row whose version chain
		// fills the page cannot be split; its old versions become
		// purgeable as soon as concurrent views advance, so back off
		// and retry.
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
				if err := t.SplitFor(key, need); err != nil {
					return err
				}
				continue
			}
		}

		row := ref.Page.Find(key)
		var head *page.Version
		if row != nil {
			head = row.Head()
		}

		// Row-lock check: the newest version's writer still active?
		if head != nil && head.Trx != tx.g && !head.Trx.Zero() && head.CTS == common.CSNInit {
			if cts := tx.n.resolveCTS(head); cts == common.CSNMax {
				holder := head.Trx
				tx.n.releasePager(ref)
				wtok := tx.tr.Start()
				err := tx.n.rl.WaitForDeadline(tx.g, holder, tx.deadline)
				tx.tr.Observe(trace.StageRowLockWait, wtok)
				if err != nil {
					if errors.Is(err, common.ErrDeadlock) {
						tx.n.Deadlocks.Inc()
					} else if errors.Is(err, common.ErrDeadlineExceeded) {
						tx.n.DeadlineAborts.Inc()
						tx.tr.Mark(trace.StageDeadlineAbort, wtok)
					}
					return err
				}
				continue // re-examine the row
			}
		}

		// Existence semantics against the latest (now unlocked or our
		// own) version.
		exists := head != nil && !head.Deleted
		switch op {
		case opInsert:
			if exists {
				tx.n.releasePager(ref)
				return fmt.Errorf("core: key %q: %w", key, common.ErrKeyExists)
			}
		case opUpdate, opDelete, opLockRow:
			if !exists {
				tx.n.releasePager(ref)
				return fmt.Errorf("core: key %q: %w", key, common.ErrNotFound)
			}
		}
		if op == opLockRow {
			if head.Trx == tx.g {
				// Already locked by us; nothing to do.
				tx.n.releasePager(ref)
				return nil
			}
			value = append([]byte(nil), head.Value...)
		}

		tx.mutate(ref, frame, space, key, value, op == opDelete)
		tx.n.releasePager(ref)
		return nil
	}
}
