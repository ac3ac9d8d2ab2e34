package core

import (
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
)

// TestDroppedInvalidationLosesNoCommit is ROADMAP 0(m): node 2 caches k=v1,
// node 1 commits v2, and every invalidation write to node 2 is dropped while
// node 1 pushes the page on its way to node 2. The push used to discard the
// undelivered invalidation, so node 2 was granted the page and served v1 from
// its cache — and a read-modify-write there overwrote the acknowledged v2.
// Now the push fails, node 1 keeps the PLock, and node 2 is granted the page
// only once the invalidation lands.
func TestDroppedInvalidationLosesNoCommit(t *testing.T) {
	for _, cc := range []string{CC2PL, CCOCC} {
		t.Run(cc, func(t *testing.T) {
			c := NewCluster(Config{LockWaitTimeout: 2 * time.Second, RecycleInterval: 5 * time.Millisecond, CC: cc})
			t.Cleanup(c.Close)
			for i := 0; i < 2; i++ {
				if _, err := c.AddNode(); err != nil {
					t.Fatal(err)
				}
			}
			sp, err := c.CreateSpace("t")
			if err != nil {
				t.Fatal(err)
			}
			n1, n2 := c.Node(1), c.Node(2)
			put(t, n1, sp, "k", "v1")
			if v, err := get(t, n2, sp, "k"); err != nil || v != "v1" {
				t.Fatalf("node 2 first read = %q, %v", v, err)
			}
			put(t, n1, sp, "k", "v2")

			var drop atomic.Bool
			var dropped atomic.Int64
			drop.Store(true)
			c.Fabric().SetInjector(func(op common.FaultOp) common.FaultDecision {
				if op.Class == common.FaultWrite && op.Dst == 2 && op.Name == bufferfusion.RegionInval && drop.Load() {
					dropped.Add(1)
					return common.FaultDecision{Err: common.ErrInjected}
				}
				return common.FaultDecision{}
			})
			type read struct {
				v   string
				err error
			}
			got := make(chan read, 1)
			go func() {
				tx, err := n2.Begin()
				if err != nil {
					got <- read{err: err}
					return
				}
				v, err := tx.Get(sp, []byte("k"))
				_ = tx.Commit()
				got <- read{string(v), err}
			}()
			var r read
			select {
			case r = <-got:
				t.Errorf("stale read: node 2 was served %q, %v with %d invalidations to it undelivered", r.v, r.err, dropped.Load())
			case <-time.After(100 * time.Millisecond):
				drop.Store(false)
				r = <-got
			}
			drop.Store(false)
			c.Fabric().SetInjector(nil)
			if r.err != nil || r.v != "v2" {
				t.Errorf("stale read: node 2 read %q, %v; want v2", r.v, r.err)
			}

			tx, err := n2.Begin()
			if err != nil {
				t.Fatal(err)
			}
			cur, err := tx.GetForUpdate(sp, []byte("k"))
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Update(sp, []byte("k"), append(cur, "+x"...)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("lost update: node 2's read-modify-write: %v", err)
			}
			for _, n := range []*Node{n1, n2} {
				if v, err := get(t, n, sp, "k"); err != nil || v != "v2+x" {
					t.Errorf("lost update: node %d reads %q, %v; want v2+x", n.ID(), v, err)
				}
			}
		})
	}
}
