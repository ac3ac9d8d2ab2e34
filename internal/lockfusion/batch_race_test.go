package lockfusion

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// TestPLockStripedInterleavedStress hammers the striped PLock server from 8
// nodes with interleaved acquires, revokes (X conflicts force them), single
// releases and batched ReleaseAll, over enough pages to touch every stripe.
// Run under -race it checks the stripe locking, the separate dead-map lock
// and the batched revoke/release wire paths for data races; the X-holder
// counters check mutual exclusion survives the striping.
func TestPLockStripedInterleavedStress(t *testing.T) {
	const nodes = 8
	tc := newTestCluster(t, nodes, Config{})
	const pages = 4 * plockStripes // every stripe holds several entries
	var holders [pages]xHolders
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		for th := 0; th < 2; th++ {
			wg.Add(1)
			go func(c *PLockClient, n, seed int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(seed)))
				for i := 0; i < 150; i++ {
					pg := common.PageID(rng.Intn(pages) + 1)
					if rng.Intn(3) == 0 {
						if err := c.Acquire(pg, ModeS); err != nil {
							t.Error(err)
							return
						}
						holders[pg-1].checkOthers(t, pg, n, "S")
						c.Release(pg)
					} else {
						if err := c.Acquire(pg, ModeX); err != nil {
							t.Error(err)
							return
						}
						holders[pg-1].enterX(t, pg, n)
						holders[pg-1].leaveX(n)
						c.Release(pg)
					}
					if rng.Intn(40) == 0 {
						c.ReleaseAll() // batched release races in-flight revokes
					}
				}
			}(tc.pl[n], n, n*131+th*17)
		}
	}
	wg.Wait()
	for n := 0; n < nodes; n++ {
		tc.pl[n].ReleaseAll()
	}
	if got := tc.srv.PLock.HolderCount(); got != 0 {
		t.Fatalf("after ReleaseAll everywhere, %d pages still held:\n%s",
			got, tc.srv.PLock.DebugDump())
	}
}

// TestBatchedReleaseNotBeforeFlush pins the batching safety invariant: a
// batched release must not tell the server about a page whose revoke flush
// hook is still running, because the server would re-grant the page to
// another node that could then read a stale image. Node A holds several
// pages whose (slow) flush hooks record completion; node B's concurrent
// acquires — which arrive as one coalesced revoke batch — must each observe
// their page's flush finished before the grant returns, even while A's own
// ReleaseAll races the revoke for the same pages.
func TestBatchedReleaseNotBeforeFlush(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	a, b := tc.pl[0], tc.pl[1]
	const pages = 6
	var flushed, inFlush [pages]atomic.Bool
	a.SetRevokeHandler(func(pg common.PageID, held Mode) error {
		i := int(pg) - 1
		inFlush[i].Store(true)
		time.Sleep(2 * time.Millisecond) // widen the mid-flush window
		inFlush[i].Store(false)
		flushed[i].Store(true)
		return nil
	})
	for pg := common.PageID(1); pg <= pages; pg++ {
		if err := a.Acquire(pg, ModeX); err != nil {
			t.Fatal(err)
		}
		a.Release(pg) // lazy retention: A still holds X at the node level
	}

	var wg sync.WaitGroup
	for pg := common.PageID(1); pg <= pages; pg++ {
		wg.Add(1)
		go func(pg common.PageID) {
			defer wg.Done()
			if err := b.Acquire(pg, ModeX); err != nil {
				t.Error(err)
				return
			}
			if inFlush[int(pg)-1].Load() {
				t.Errorf("page %d granted while A's flush hook mid-flight", pg)
			}
			if !flushed[int(pg)-1].Load() {
				t.Errorf("page %d granted before A's flush hook completed", pg)
			}
			b.Release(pg)
		}(pg)
	}
	// A's own batched release races the incoming revoke batch; whichever
	// path wins must run the flush hooks before the server hears anything.
	go a.ReleaseAll()
	wg.Wait()
}
