package lockfusion

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
	"polardbmp/internal/txfusion"
)

type testCluster struct {
	fabric *rdma.Fabric
	srv    *Server
	tf     []*txfusion.Client
	pl     []*PLockClient
	rl     []*RLockClient
}

func newTestCluster(t testing.TB, n int, cfg Config) *testCluster {
	t.Helper()
	fabric := rdma.NewFabric(rdma.Latency{})
	pmfs := fabric.Register(common.PMFSNode)
	txfusion.NewServer(pmfs, fabric)
	tc := &testCluster{fabric: fabric, srv: NewServer(pmfs, fabric)}
	for i := 0; i < n; i++ {
		ep := fabric.Register(common.NodeID(i + 1))
		tf := txfusion.NewClient(ep, fabric, txfusion.Config{})
		tc.tf = append(tc.tf, tf)
		tc.pl = append(tc.pl, NewPLockClient(ep, fabric, cfg))
		tc.rl = append(tc.rl, NewRLockClient(ep, fabric, tf, cfg))
	}
	return tc
}

func TestPLockBasic(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	c := tc.pl[0]
	if err := c.Acquire(1, ModeX); err != nil {
		t.Fatal(err)
	}
	if c.HeldMode(1) != ModeX {
		t.Fatalf("held mode = %v", c.HeldMode(1))
	}
	c.Release(1)
	// Lazy retention: still held at node level.
	if c.HeldMode(1) != ModeX {
		t.Fatal("lazy release dropped the lock")
	}
	// Local re-grant must not hit the server again.
	before := tc.srv.PLock.Grants.Load()
	if err := c.Acquire(1, ModeS); err != nil {
		t.Fatal(err)
	}
	c.Release(1)
	if tc.srv.PLock.Grants.Load() != before {
		t.Fatal("local re-grant went to the server")
	}
	if c.LocalGrants.Load() == 0 {
		t.Fatal("local grant not counted")
	}
}

func TestPLockSharedAcrossNodes(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	if err := tc.pl[0].Acquire(5, ModeS); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tc.pl[1].Acquire(5, ModeS) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("S/S across nodes blocked")
	}
	tc.pl[0].Release(5)
	tc.pl[1].Release(5)
}

// A negotiation message lost to a link partition must be re-sent once the
// link heals: the blocked waiter re-collects stale revokes on its resend
// tick, so a lazy holder that never heard the first revoke still releases.
// Before the resend existed, the one-shot revoked mark wedged the page until
// the wait backstop.
func TestPLockRevokeResendAfterPartition(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	var revoked atomic.Int32
	tc.pl[0].SetRevokeHandler(func(pg common.PageID, held Mode) error {
		revoked.Add(1)
		return nil
	})
	if err := tc.pl[0].Acquire(9, ModeX); err != nil {
		t.Fatal(err)
	}
	tc.pl[0].Release(9) // lazily retained

	// Partition the server→node-1 revoke path: delivery retries exhaust in
	// milliseconds, so the first negotiation is lost outright.
	var partitioned atomic.Bool
	partitioned.Store(true)
	tc.fabric.SetInjector(func(op common.FaultOp) common.FaultDecision {
		if partitioned.Load() && op.Name == ServiceRevoke && op.Dst == 1 {
			return common.FaultDecision{Err: common.ErrUnreachable}
		}
		return common.FaultDecision{}
	})

	done := make(chan error, 1)
	go func() { done <- tc.pl[1].Acquire(9, ModeX) }()

	// The revoke is lost while the partition holds; the waiter must not be
	// granted (node 1 still holds X and was never asked to release).
	select {
	case err := <-done:
		t.Fatalf("acquire finished during the partition: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if revoked.Load() != 0 {
		t.Fatalf("revoke delivered through the partition (%d)", revoked.Load())
	}

	partitioned.Store(false)
	// Heal: the waiter's next resend tick re-collects the stale revoke and
	// this time it reaches node 1, which releases its lazy hold.
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * plockRevokeResend):
		t.Fatal("waiter still blocked after heal: lost revoke never re-sent")
	}
	if revoked.Load() == 0 {
		t.Fatal("revoke handler never ran after heal")
	}
	tc.pl[1].Release(9)
}

func TestPLockConflictAndNegotiation(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	var revoked atomic.Int32
	tc.pl[0].SetRevokeHandler(func(pg common.PageID, held Mode) error {
		revoked.Add(1)
		return nil
	})
	if err := tc.pl[0].Acquire(9, ModeX); err != nil {
		t.Fatal(err)
	}
	tc.pl[0].Release(9) // lazily retained

	// Node 2 wants X: PMFS must negotiate node 1's lazy X away.
	if err := tc.pl[1].Acquire(9, ModeX); err != nil {
		t.Fatal(err)
	}
	if revoked.Load() != 1 {
		t.Fatalf("revoke hook ran %d times, want 1", revoked.Load())
	}
	if tc.pl[0].HeldMode(9) != 0 {
		t.Fatal("node 1 still holds the PLock after negotiation")
	}
	tc.pl[1].Release(9)
	if tc.srv.PLock.Negotiations.Load() == 0 {
		t.Fatal("negotiation not counted")
	}
}

func TestPLockBusyHolderReleasesOnUnref(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	if err := tc.pl[0].Acquire(3, ModeX); err != nil {
		t.Fatal(err) // node 1 busy (refs=1)
	}
	got := make(chan error, 1)
	go func() { got <- tc.pl[1].Acquire(3, ModeX) }()
	// Node 2's request must stay blocked while node 1 is using the page.
	select {
	case err := <-got:
		t.Fatalf("X granted while conflicting X in use (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	tc.pl[0].Release(3) // refs drop to 0 with a revoke pending -> release
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("lock never handed over")
	}
	tc.pl[1].Release(3)
}

func TestPLockNoLazyRelease(t *testing.T) {
	tc := newTestCluster(t, 1, Config{DisableLazyRelease: true})
	c := tc.pl[0]
	if err := c.Acquire(1, ModeX); err != nil {
		t.Fatal(err)
	}
	c.Release(1)
	if c.HeldMode(1) != 0 {
		t.Fatal("lock retained with lazy release disabled")
	}
	if tc.srv.PLock.HolderCount() != 0 {
		t.Fatal("server still records a holder")
	}
}

func TestPLockXThenSLocalDowngradeUse(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	c := tc.pl[0]
	if err := c.Acquire(1, ModeX); err != nil {
		t.Fatal(err)
	}
	c.Release(1)
	// Lazy X covers a local S request.
	if err := c.Acquire(1, ModeS); err != nil {
		t.Fatal(err)
	}
	c.Release(1)
}

func TestPLockSLocalThenXUpgradesViaRelease(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	c := tc.pl[0]
	if err := c.Acquire(1, ModeS); err != nil {
		t.Fatal(err)
	}
	c.Release(1) // lazy S retained
	// X on a lazily-held S: client gives S back, then fetches X.
	if err := c.Acquire(1, ModeX); err != nil {
		t.Fatal(err)
	}
	if c.HeldMode(1) != ModeX {
		t.Fatalf("held = %v", c.HeldMode(1))
	}
	c.Release(1)
}

func TestPLockFIFONoStarvation(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	// Node 1 holds X lazily. Nodes 2 and 3 queue for X; both must get it.
	if err := tc.pl[0].Acquire(7, ModeX); err != nil {
		t.Fatal(err)
	}
	tc.pl[0].Release(7)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := tc.pl[i+1].Acquire(7, ModeX); err != nil {
				errs[i] = err
				return
			}
			time.Sleep(10 * time.Millisecond)
			tc.pl[i+1].Release(7)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i+2, err)
		}
	}
}

// xHolders counts, per node, the local threads inside a page's X section. A
// PLock is node-granular: threads of ONE node legitimately share its X (the
// frame latch orders them), so exclusivity is across nodes only.
type xHolders [8]int64

// enterX records node n's thread entering and fails if another node is inside.
func (h *xHolders) enterX(t *testing.T, pg common.PageID, n int) {
	atomic.AddInt64(&h[n], 1)
	h.checkOthers(t, pg, n, "X")
}

func (h *xHolders) leaveX(n int) { atomic.AddInt64(&h[n], -1) }

// checkOthers fails if any node other than n has a thread inside X.
func (h *xHolders) checkOthers(t *testing.T, pg common.PageID, n int, mode string) {
	for m := range h {
		if v := atomic.LoadInt64(&h[m]); m != n && v != 0 {
			t.Errorf("page %d: node %d granted %s with %d X holders on node %d", pg, n+1, mode, v, m+1)
		}
	}
}

func TestPLockConcurrentStress(t *testing.T) {
	tc := newTestCluster(t, 4, Config{})
	const pages = 8
	var holders [pages]xHolders
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		for th := 0; th < 4; th++ {
			wg.Add(1)
			go func(c *PLockClient, n, seed int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					pg := common.PageID((seed+i)%pages + 1)
					if err := c.Acquire(pg, ModeX); err != nil {
						t.Error(err)
						return
					}
					holders[pg-1].enterX(t, pg, n)
					holders[pg-1].leaveX(n)
					c.Release(pg)
				}
			}(tc.pl[n], n, n*31+th*7)
		}
	}
	wg.Wait()
}

func TestPLockDropNode(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	if err := tc.pl[0].Acquire(4, ModeX); err != nil {
		t.Fatal(err)
	}
	// Node 1 "crashes" without releasing.
	tc.srv.DropNode(1)
	done := make(chan error, 1)
	go func() { done <- tc.pl[1].Acquire(4, ModeX) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("lock of crashed node not released")
	}
}

// --- RLock ------------------------------------------------------------------

func TestRLockWaitAndWake(t *testing.T) {
	tc := newTestCluster(t, 2, Config{WaitTimeout: 5 * time.Second})
	holder, _ := tc.tf[0].Begin(1)
	waiter, _ := tc.tf[1].Begin(2)

	woken := make(chan error, 1)
	go func() { woken <- tc.rl[1].WaitFor(waiter, holder) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-woken:
		t.Fatalf("waiter returned early: %v", err)
	default:
	}

	// Holder commits: ref flag must be set, and notification wakes waiter.
	cts, _ := tc.tf[0].NextCommitCSN()
	waiters, err := tc.tf[0].Commit(holder, cts)
	if err != nil {
		t.Fatal(err)
	}
	if !waiters {
		t.Fatal("ref flag not observed at commit")
	}
	tc.rl[0].NotifyCommitted(holder)
	select {
	case err := <-woken:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woken")
	}
	if tc.srv.RLock.WaitEdges() != 0 {
		t.Fatal("wait edge leaked")
	}
}

func TestRLockHolderAlreadyFinished(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	holder, _ := tc.tf[0].Begin(1)
	cts, _ := tc.tf[0].NextCommitCSN()
	tc.tf[0].Commit(holder, cts)
	waiter, _ := tc.tf[1].Begin(2)
	// WaitFor on a finished holder must return immediately (flag fails).
	start := time.Now()
	if err := tc.rl[1].WaitFor(waiter, holder); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("WaitFor blocked on a finished holder")
	}
}

func TestRLockDeadlockDetection(t *testing.T) {
	tc := newTestCluster(t, 2, Config{WaitTimeout: 5 * time.Second})
	t1, _ := tc.tf[0].Begin(1)
	t2, _ := tc.tf[1].Begin(2)

	// t1 waits for t2 ...
	go func() { tc.rl[0].WaitFor(t1, t2) }()
	time.Sleep(50 * time.Millisecond)
	// ... and t2 waiting for t1 closes the cycle: t2 must get ErrDeadlock.
	err := tc.rl[1].WaitFor(t2, t1)
	if !errors.Is(err, common.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if tc.srv.RLock.Deadlocks.Load() != 1 {
		t.Fatalf("deadlock counter = %d", tc.srv.RLock.Deadlocks.Load())
	}
	// Unblock t1 by finishing t2.
	tc.tf[1].Finish(t2)
	tc.rl[1].NotifyCommitted(t2)
}

func TestRLockDeadlockThreeWay(t *testing.T) {
	tc := newTestCluster(t, 3, Config{WaitTimeout: 5 * time.Second})
	t1, _ := tc.tf[0].Begin(1)
	t2, _ := tc.tf[1].Begin(2)
	t3, _ := tc.tf[2].Begin(3)
	go func() { tc.rl[0].WaitFor(t1, t2) }()
	go func() { tc.rl[1].WaitFor(t2, t3) }()
	time.Sleep(50 * time.Millisecond)
	if err := tc.rl[2].WaitFor(t3, t1); !errors.Is(err, common.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	tc.tf[2].Finish(t3)
	tc.rl[2].NotifyCommitted(t3)
	time.Sleep(20 * time.Millisecond)
	tc.tf[1].Finish(t2)
	tc.rl[1].NotifyCommitted(t2)
}

func TestRLockTimeout(t *testing.T) {
	tc := newTestCluster(t, 2, Config{WaitTimeout: 50 * time.Millisecond})
	holder, _ := tc.tf[0].Begin(1)
	waiter, _ := tc.tf[1].Begin(2)
	err := tc.rl[1].WaitFor(waiter, holder)
	if !errors.Is(err, common.ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	if tc.srv.RLock.WaitEdges() != 0 {
		t.Fatal("timed-out wait edge leaked")
	}
}

func TestRLockDropNodeWakesForeignWaiters(t *testing.T) {
	tc := newTestCluster(t, 2, Config{WaitTimeout: 5 * time.Second})
	holder, _ := tc.tf[0].Begin(1)
	waiter, _ := tc.tf[1].Begin(2)
	woken := make(chan error, 1)
	go func() { woken <- tc.rl[1].WaitFor(waiter, holder) }()
	time.Sleep(50 * time.Millisecond)
	tc.srv.DropNode(1)
	select {
	case err := <-woken:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter on crashed holder never woken")
	}
}

func TestPLockFencedFailFast(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	// Node 1 holds X, then "crashes" (MarkDead) without releasing.
	if err := tc.pl[0].Acquire(11, lockfusion_ModeX()); err != nil {
		t.Fatal(err)
	}
	tc.srv.PLock.MarkDead(1)
	// A fresh conflicting request fails fast with a retryable fence error.
	start := time.Now()
	err := tc.pl[1].Acquire(11, lockfusion_ModeX())
	if !errors.Is(err, common.ErrFenced) {
		t.Fatalf("err = %v, want ErrFenced", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("fenced request blocked instead of failing fast")
	}
	if !common.IsRetryable(err) {
		t.Fatal("fence error must be retryable")
	}
	// Compatible requests (S vs the dead node's S) still work.
	if err := tc.pl[2].Acquire(12, lockfusion_ModeS()); err != nil {
		t.Fatal(err)
	}
	// Recovery lifts the fence.
	tc.srv.PLock.dropNode(1)
	tc.srv.PLock.ClearDead(1)
	if err := tc.pl[1].Acquire(11, lockfusion_ModeX()); err != nil {
		t.Fatal(err)
	}
	tc.pl[1].Release(11)
}

func TestPLockMarkDeadWakesQueuedWaiters(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	if err := tc.pl[0].Acquire(5, lockfusion_ModeX()); err != nil {
		t.Fatal(err) // busy: refs held
	}
	got := make(chan error, 1)
	go func() { got <- tc.pl[1].Acquire(5, lockfusion_ModeX()) }()
	time.Sleep(50 * time.Millisecond)
	// The holder dies while the waiter is queued: the waiter must be
	// failed fast with a fence error, not left to the backstop timeout.
	tc.srv.PLock.MarkDead(1)
	select {
	case err := <-got:
		if !errors.Is(err, common.ErrFenced) {
			t.Fatalf("queued waiter err = %v, want ErrFenced", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter not failed by MarkDead")
	}
}

// helpers keeping the test body readable
func lockfusion_ModeX() Mode { return ModeX }
func lockfusion_ModeS() Mode { return ModeS }

// fakePages is a buffer pool that reports set page versions and records the
// LLSN of every grant.
type fakePages struct {
	mu      sync.Mutex
	cached  map[common.PageID]common.LLSN
	granted []common.LLSN
}

func (f *fakePages) PageLLSN(pg common.PageID) (common.LLSN, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.cached[pg]
	return v, ok
}

func (f *fakePages) Granted(_ common.PageID, llsn common.LLSN) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.granted = append(f.granted, llsn)
}

func (f *fakePages) set(pg common.PageID, llsn common.LLSN, cached bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cached {
		f.cached[pg] = llsn
	} else {
		delete(f.cached, pg)
	}
}

func (f *fakePages) last() common.LLSN {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.granted) == 0 {
		return 0
	}
	return f.granted[len(f.granted)-1]
}

// TestGrantCarriesReleasedLLSN: an X release names its page's version, and
// the next grant hands it to the grantee's pool. A holder whose copy left its
// pool, or who never released because it died, leaves the version unknown.
func TestGrantCarriesReleasedLLSN(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	pages := make([]*fakePages, 3)
	for i, c := range tc.pl {
		pages[i] = &fakePages{cached: make(map[common.PageID]common.LLSN)}
		c.SetPageVersions(pages[i])
		c.SetRevokeHandler(func(common.PageID, Mode) error { return nil })
	}
	const pg = 5
	acquire := func(i int, m Mode) {
		t.Helper()
		if err := tc.pl[i].Acquire(pg, m); err != nil {
			t.Fatal(err)
		}
		tc.pl[i].Release(pg) // lazily retained until revoked
	}

	acquire(0, ModeX)
	pages[0].set(pg, 7, true)
	acquire(1, ModeS) // queued behind node 1's X, which the revoke releases
	if got := pages[1].last(); got != 7 {
		t.Fatalf("node 2's grant carried LLSN %d, want node 1's released 7", got)
	}
	acquire(0, ModeX) // an S release names no version
	if got := pages[0].last(); got != 7 {
		t.Fatalf("node 1's grant carried LLSN %d, want 7", got)
	}
	pages[0].set(pg, 0, false) // node 1's copy leaves its pool
	acquire(2, ModeS)
	if got := pages[2].last(); got != llsnUnknown {
		t.Fatalf("grant after an evicted holder's release carried %d, want unknown", got)
	}

	acquire(0, ModeX)
	pages[0].set(pg, 9, true)
	acquire(1, ModeS)
	if got := pages[1].last(); got != 9 {
		t.Fatalf("node 2's grant carried LLSN %d, want 9", got)
	}
	if err := tc.pl[0].Acquire(pg, ModeX); err != nil {
		t.Fatal(err)
	}
	tc.srv.PLock.MarkDead(1) // node 1 dies holding X
	tc.srv.DropNodePLock(1)
	acquire(2, ModeS)
	if got := pages[2].last(); got != llsnUnknown {
		t.Fatalf("grant after a dead holder's fence lifted carried %d, want unknown", got)
	}
}
