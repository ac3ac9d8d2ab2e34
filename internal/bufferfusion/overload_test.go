package bufferfusion

import (
	"errors"
	"sync/atomic"
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

// TestHedgedFetchStorageFallback simulates a fail-slow DBP path: the
// primary one-sided read stalls far past the hedge delay, the frame is
// clean (pushed from a storage read), so the hedge reads storage and wins.
func TestHedgedFetchStorageFallback(t *testing.T) {
	c := newBFCluster(t, 2, 16, 16)
	storePage(t, c.store, makePage(1, "v0"))

	// Node 1 loads from storage, registering the page in the DBP with a
	// clean push.
	f, err := c.lbp[0].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	c.lbp[0].Unpin(f)

	delayDBPReads(c, 50*time.Millisecond)
	c.lbp[1].SetHedgeDelayFloor(2 * time.Millisecond)
	start := time.Now()
	f2, kind, err := c.lbp[1].GetDeadlineEx(1, common.Deadline{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("hedged fetch took %v, want well under the 50ms stall", elapsed)
	}
	if kind != FetchDBP {
		t.Fatalf("kind = %v, want FetchDBP", kind)
	}
	if got := string(f2.Pg.Find([]byte("k")).Head().Value); got != "v0" {
		t.Fatalf("hedged fetch content = %q, want v0", got)
	}
	c.lbp[1].Unpin(f2)
	if c.lbp[1].HedgesFired.Load() != 1 || c.lbp[1].HedgeWins.Load() != 1 {
		t.Fatalf("hedges fired/won = %d/%d, want 1/1",
			c.lbp[1].HedgesFired.Load(), c.lbp[1].HedgeWins.Load())
	}
}

// TestHedgeDirtyFrameNeverReadsStaleStorage pins the staleness guard: when
// the DBP frame is newer than the storage image, the hedge must re-read the
// DBP (slow as it is), never serve the stale storage copy.
func TestHedgeDirtyFrameNeverReadsStaleStorage(t *testing.T) {
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
	c.lbp[1].SetHedgeDelayFloor(time.Millisecond)
	f2, err := c.lbp[1].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(f2.Pg.Find([]byte("k")).Head().Value); got != "new" {
		t.Fatalf("fetch content = %q, want new (stale storage image served)", got)
	}
	c.lbp[1].Unpin(f2)
	if c.lbp[1].HedgesFired.Load() == 0 {
		t.Fatal("hedge never fired despite the stall")
	}
}

// TestLookupSheddingRecovers drives a stripe over its admission bound and
// verifies the shed surfaces as retryable ErrOverloaded, then that the
// client's transient-retry backoff absorbs a shed that drains mid-flight.
func TestLookupSheddingRecovers(t *testing.T) {
	c := newBFCluster(t, 1, 16, 16)
	storePage(t, c.store, makePage(1, "v0"))
	c.srv.SetAdmissionLimit(1)
	c.lbp[0].SetRetryPolicy(common.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond})

	// Saturate the stripe: every lookup now overflows the bound.
	st := c.srv.stripeFor(1)
	st.inflight.Add(1)
	_, err := c.lbp[0].Get(1)
	if !errors.Is(err, common.ErrOverloaded) {
		t.Fatalf("saturated lookup err = %v, want ErrOverloaded", err)
	}
	if c.srv.Sheds.Load() == 0 {
		t.Fatal("shed not counted")
	}

	// Drain the stripe while the client is backing off: the retry must
	// absorb the shed and the fetch succeed.
	var cleared atomic.Bool
	go func() {
		time.Sleep(200 * time.Microsecond)
		st.inflight.Add(-1)
		cleared.Store(true)
	}()
	c.lbp[0].SetRetryPolicy(common.RetryPolicy{MaxAttempts: 50, BaseDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond})
	f, err := c.lbp[0].Get(1)
	if err != nil {
		t.Fatalf("fetch after drain: %v", err)
	}
	if !cleared.Load() {
		t.Fatal("fetch succeeded before the stripe drained")
	}
	c.lbp[0].Unpin(f)
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
	c.lbp[1].SetHedgeDelayFloor(0) // isolate the deadline path
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
