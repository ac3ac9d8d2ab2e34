package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// TestTxDeadlineRowLockAbort: a deadline-bounded transaction parked behind
// another transaction's row lock must give up with ErrDeadlineExceeded when
// its budget runs out — well before the cluster-wide LockWaitTimeout
// backstop — and the abort must be visible in the cluster stats.
func TestTxDeadlineRowLockAbort(t *testing.T) {
	c, sp := testCluster(t, 2)
	n0, n1 := c.Node(1), c.Node(2)

	put(t, n0, sp, "k", "v0")

	// tx1 takes the row X lock and sits on it.
	tx1, err := n0.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Update(sp, []byte("k"), []byte("held")); err != nil {
		t.Fatal(err)
	}

	before := c.Stats().DeadlineAborts

	tx2, err := n1.BeginDeadline(ReadCommitted, common.DeadlineAfter(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = tx2.Update(sp, []byte("k"), []byte("bounded"))
	elapsed := time.Since(start)
	if !errors.Is(err, common.ErrDeadlineExceeded) {
		t.Fatalf("bounded update behind row lock: err = %v, want ErrDeadlineExceeded", err)
	}
	// The 2s LockWaitTimeout backstop must not be what fired.
	if elapsed > time.Second {
		t.Fatalf("bounded update took %v; deadline (60ms) should have bounded the wait", elapsed)
	}
	tx2.Rollback()

	if after := c.Stats().DeadlineAborts; after <= before {
		t.Errorf("DeadlineAborts = %d, want > %d", after, before)
	}

	// The held lock is still good: tx1 commits, and a fresh bounded tx with
	// an ample budget succeeds.
	mustCommit(t, tx1)
	tx3, err := n1.BeginDeadline(ReadCommitted, common.DeadlineAfter(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.Update(sp, []byte("k"), []byte("after")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx3)
	if v, err := get(t, n0, sp, "k"); err != nil || v != "after" {
		t.Fatalf("get after bounded commit: %q, %v", v, err)
	}
}

// TestBeginDeadlineExpired: an already-spent budget fails at Begin, before
// any TIT slot or trace state is allocated.
func TestBeginDeadlineExpired(t *testing.T) {
	c, _ := testCluster(t, 1)
	dl := common.DeadlineAt(time.Now().Add(-time.Millisecond))
	if _, err := c.Node(1).BeginDeadline(ReadCommitted, dl); !errors.Is(err, common.ErrDeadlineExceeded) {
		t.Fatalf("BeginDeadline(expired) = %v, want ErrDeadlineExceeded", err)
	}
}

// TestDeadlineTxUsesPrivateTrees pins the routing invariant the zero-cost
// claim rests on: an unbounded untraced transaction walks the node's shared
// trees, while a deadline-bounded one builds private trees over its own pager
// so the budget rides into PLock acquires and page fetches.
func TestDeadlineTxUsesPrivateTrees(t *testing.T) {
	c, sp := testCluster(t, 1)
	n := c.Node(1)
	put(t, n, sp, "k", "v")

	plain, err := n.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Rollback()
	shared, err := n.tree(sp)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := plain.tree(sp); err != nil || pt != shared {
		t.Fatalf("unbounded tx tree = %p (err %v), want shared %p", pt, err, shared)
	}

	bounded, err := n.BeginDeadline(ReadCommitted, common.DeadlineAfter(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer bounded.Rollback()
	if pt, err := bounded.tree(sp); err != nil || pt == shared {
		t.Fatalf("bounded tx tree = %p (err %v), want private (shared is %p)", pt, err, shared)
	}
}

// TestDeadlineCheckZeroAllocs is the alloc guard for the statement/commit
// deadline checkpoints: on an untraced transaction with no budget set,
// checkDeadline must be allocation-free, so threading it through Get, Scan,
// the write path, and Commit adds nothing to the hot path. (The Deadline
// type's own methods are covered by TestDeadlineZeroAllocs in common.)
func TestDeadlineCheckZeroAllocs(t *testing.T) {
	c, _ := testCluster(t, 1)
	tx, err := c.Node(1).Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()

	if avg := testing.AllocsPerRun(1000, func() {
		if err := tx.checkDeadline(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("checkDeadline (no deadline, untraced): %.1f allocs/op, want 0", avg)
	}
}

// TestCommitAllocBudget locks down allocations on the warm untraced
// no-deadline single-row update commit — the same fixture as
// TestCommitFabricOpBudget, measured in allocs instead of fabric verbs. The
// budget has headroom over the measured value; what it catches is a change
// that quietly routes the unbounded path through private trees or adds
// per-statement allocation to the deadline checkpoints.
func TestCommitAllocBudget(t *testing.T) {
	c := NewCluster(Config{
		LockWaitTimeout: 2 * time.Second,
		RecycleInterval: -1,
	})
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := c.CreateSpace("t")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	n := c.Node(1)

	for i := 0; i < 5; i++ {
		put(t, n, sp, "k", fmt.Sprintf("warm%d", i))
	}

	i := 0
	avg := testing.AllocsPerRun(64, func() {
		tx, err := n.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update(sp, []byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("warm untraced update commit: %.1f allocs/op", avg)
	const budget = 48
	if avg > budget {
		t.Errorf("warm untraced update commit: %.1f allocs/op, budget %d", avg, budget)
	}
}
