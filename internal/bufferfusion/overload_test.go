package bufferfusion

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/page"
)

// delayDBPReads installs a fabric injector stalling every one-sided DBP
// frame read by d (lookup RPCs stay fast).
func delayDBPReads(c *bfCluster, d time.Duration) {
	c.fabric.SetInjector(func(op common.FaultOp) common.FaultDecision {
		if op.Class == common.FaultRead && op.Name == RegionDBP {
			return common.FaultDecision{Delay: d}
		}
		return common.FaultDecision{}
	})
}

// TestStalledDBPReadNeverReadsStaleStorage pins the staleness guard: when
// the DBP frame is newer than the storage image, a stalled DBP read is
// waited out, never bypassed through the stale storage copy.
func TestStalledDBPReadNeverReadsStaleStorage(t *testing.T) {
	c := newBFCluster(t, 2, 16, 16)
	storePage(t, c.store, makePage(1, "old"))

	f, err := c.lbp[0].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	f.Mu.Lock()
	f.Pg.InsertVersion([]byte("k"), page.Version{Value: []byte("new")})
	f.Dirty = true
	err = c.lbp[0].Push(f)
	f.Mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	c.lbp[0].Unpin(f)
	// Storage still holds "old"; the DBP frame holds "new" and is dirty.

	delayDBPReads(c, 10*time.Millisecond)
	f2, err := c.lbp[1].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(f2.Pg.Find([]byte("k")).Head().Value); got != "new" {
		t.Fatalf("fetch content = %q, want new (stale storage image served)", got)
	}
	c.lbp[1].Unpin(f2)
	if n := c.lbp[1].StorageReads.Load(); n != 0 {
		t.Fatalf("node 2 read storage %d times, want 0 (the DBP frame is the page's newest image)", n)
	}
}

// TestDBPHitFetchAllocs caps the allocations of a DBP-hit fetch: one lookup
// RPC, then one one-sided read inline on the caller's goroutine. The page
// is a full 44-row leaf, so a per-row allocation in the decode shows.
func TestDBPHitFetchAllocs(t *testing.T) {
	c := newBFCluster(t, 2, 16, 16)
	leaf := page.New(1, 1, page.TypeLeaf)
	for i := 0; i < 44; i++ {
		leaf.InsertVersion([]byte(fmt.Sprintf("k%09d", i)), page.Version{CTS: 1, Value: make([]byte, 100)})
	}
	leaf.LLSN = 1
	storePage(t, c.store, leaf)
	f, err := c.lbp[0].Get(1) // registers the page in the DBP
	if err != nil {
		t.Fatal(err)
	}
	c.lbp[0].Unpin(f)

	allocs := testing.AllocsPerRun(200, func() {
		if _, _, kind, err := c.lbp[1].fetch(1, common.Deadline{}); err != nil || kind != FetchDBP {
			t.Fatalf("fetch = %v, %v; want a DBP hit", kind, err)
		}
	})
	t.Logf("DBP-hit fetch: %.0f allocs/op", allocs)
	const budget = 6
	if allocs > budget {
		t.Fatalf("DBP-hit fetch: %.0f allocs/op, want <= %d", allocs, budget)
	}
}

// TestGetDeadline verifies the budget bounds the fetch path: an expired
// deadline refuses before any I/O, and a deadline that expires during
// transient-fault retries surfaces ErrDeadlineExceeded without falling
// through to an unbounded storage read.
func TestGetDeadline(t *testing.T) {
	c := newBFCluster(t, 2, 16, 16)
	storePage(t, c.store, makePage(1, "v0"))

	// Expired before starting: no storage I/O at all.
	_, _, err := c.lbp[0].GetDeadlineEx(1, common.DeadlineAt(time.Now().Add(-time.Millisecond)))
	if !errors.Is(err, common.ErrDeadlineExceeded) {
		t.Fatalf("expired GetDeadline err = %v, want ErrDeadlineExceeded", err)
	}
	if c.lbp[0].StorageReads.Load() != 0 {
		t.Fatal("expired fetch still read storage")
	}

	// Register the page, then make DBP reads fail persistently: node 2's
	// deadline-bounded fetch must stop retrying at the budget instead of
	// silently escalating to storage.
	f, err := c.lbp[0].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	c.lbp[0].Unpin(f)
	c.fabric.SetInjector(func(op common.FaultOp) common.FaultDecision {
		if op.Class == common.FaultRead && op.Name == RegionDBP {
			return common.FaultDecision{Err: common.ErrInjected}
		}
		return common.FaultDecision{}
	})
	c.lbp[1].SetRetryPolicy(common.RetryPolicy{MaxAttempts: 1000, BaseDelay: 5 * time.Millisecond, MaxDelay: 5 * time.Millisecond})
	start := time.Now()
	_, _, err = c.lbp[1].GetDeadlineEx(1, common.DeadlineAfter(30*time.Millisecond))
	if !errors.Is(err, common.ErrDeadlineExceeded) {
		t.Fatalf("budgeted fetch err = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budgeted fetch took %v, want ~30ms", elapsed)
	}
	if c.lbp[1].StorageReads.Load() != 0 {
		t.Fatal("deadline-expired DBP fetch escalated to storage")
	}
}
