package lockfusion

import (
	"errors"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// TestPLockQueueHasNoLengthBound: a PLock queue is bounded in time (the
// acquirer's budget, the backstop), never in length. Node 1 holds X on 65
// pages of one stripe; node 2 queues a single-shot acquire on each, so a
// rejection would surface instead of being retried away. None may be turned
// away, and all are granted once node 1 releases.
func TestPLockQueueHasNoLengthBound(t *testing.T) {
	const n = 65
	tc := newTestCluster(t, 2, Config{})
	pages := make([]common.PageID, n)
	for i := range pages {
		pages[i] = common.PageID(1 + i*plockStripes) // all in stripe 1
		if err := tc.pl[0].Acquire(pages[i], ModeX); err != nil {
			t.Fatal(err) // refs=1: the revoke cannot complete
		}
	}

	one := tc.fabric.From(2).WithRetry(common.NoRetryPolicy())
	errs := make(chan error, n)
	for _, pg := range pages {
		go func() {
			_, err := one.Call(common.PMFSNode, ServicePLock, plockAcquireReqBuf(2, pg, ModeX, 0))
			errs <- err
		}()
	}
	wait := time.Now().Add(5 * time.Second)
	for tc.srv.PLock.QueuedWaiters() < n && len(errs) == 0 && time.Now().Before(wait) {
		time.Sleep(time.Millisecond)
	}
	if len(errs) > 0 {
		t.Fatalf("acquire returned while its page was still held: %v", <-errs)
	}
	if q := tc.srv.PLock.QueuedWaiters(); q != n {
		t.Fatalf("queued waiters = %d, want %d", q, n)
	}

	for _, pg := range pages {
		tc.pl[0].Release(pg)
	}
	for range pages {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("queued acquire failed: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued acquire never granted after release")
		}
	}
}

// TestPLockAcquireDeadlineExpiresInQueue parks a deadline-bounded acquire
// behind a busy holder and verifies the SERVER bounds the queue wait: the
// waiter comes back with ErrDeadlineExceeded well before the 10s backstop,
// and its queue slot is reclaimed.
func TestPLockAcquireDeadlineExpiresInQueue(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	if err := tc.pl[0].Acquire(2, ModeX); err != nil {
		t.Fatal(err) // refs=1: the revoke cannot complete
	}
	start := time.Now()
	_, err := tc.pl[1].AcquireDeadlineEx(2, ModeX, common.DeadlineAfter(50*time.Millisecond))
	if !errors.Is(err, common.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded acquire took %v (backstop fired instead of budget)", elapsed)
	}
	// The dead waiter must not hold its FIFO slot: after the holder drains,
	// a fresh acquire succeeds.
	tc.pl[0].Release(2)
	if err := tc.pl[1].Acquire(2, ModeX); err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
}

// TestRLockWaitForDeadline verifies the park timer is capped by the
// caller's budget (returning the non-retryable ErrDeadlineExceeded) while
// an unbounded wait still uses cfg.WaitTimeout -> ErrLockTimeout.
func TestRLockWaitForDeadline(t *testing.T) {
	tc := newTestCluster(t, 2, Config{WaitTimeout: 5 * time.Second})
	holder, _ := tc.tf[0].Begin(1)
	waiter, _ := tc.tf[1].Begin(2)

	start := time.Now()
	err := tc.rl[1].WaitForDeadline(waiter, holder, common.DeadlineAfter(50*time.Millisecond))
	if !errors.Is(err, common.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, common.ErrLockTimeout) {
		t.Fatal("budget-capped expiry must not be classified as a lock timeout")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budget-capped wait took %v, want ~50ms", elapsed)
	}
	if tc.srv.RLock.WaitEdges() != 0 {
		t.Fatal("expired wait edge leaked")
	}
}
