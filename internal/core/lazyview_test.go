package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/txfusion"
)

// lazyViewCluster builds a 2-node cluster with a table "t". Tests that count
// fabric ops pass RecycleInterval -1: with no background min-view ticks the
// deltas belong to the statements under test.
func lazyViewCluster(t *testing.T, cfg Config) (*Cluster, common.SpaceID) {
	t.Helper()
	cfg.LockWaitTimeout = 2 * time.Second
	c := NewCluster(cfg)
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
	return c, sp
}

// TestLazyViewVisibility is the visibility property of a read-committed point
// read, which the lazy view must keep: node 2 commits monotone counters to a
// key set (some transactions write a marker first, some roll back) while RC
// readers on both nodes Get the keys. Once a commit has returned, no
// later-started Get anywhere returns an older value; and no Get ever returns
// a marker (an intermediate or rolled-back write) or a counter whose commit
// had not been called yet.
func TestLazyViewVisibility(t *testing.T) {
	for _, cc := range []string{"2pl", "occ"} {
		cc := cc
		t.Run(cc, func(t *testing.T) {
			c, sp := lazyViewCluster(t, Config{CC: cc, RecycleInterval: 5 * time.Millisecond})
			const keys = 6
			commits := 400
			if testing.Short() {
				commits = 150
			}
			key := func(k int) []byte { return []byte(fmt.Sprintf("k%d", k)) }
			for k := 0; k < keys; k++ {
				put(t, c.Node(2), sp, string(key(k)), "0")
			}
			// committed[k]: newest counter whose Commit has returned.
			// calling[k]: newest counter whose Commit has been called.
			var committed, calling [keys]atomic.Int64

			done := make(chan struct{})
			var wg sync.WaitGroup
			for _, node := range []int{1, 2} {
				wg.Add(1)
				go func(n *Node) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						tx, err := n.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						for j := 0; j < 3; j++ {
							k := (i + j) % keys
							floor := committed[k].Load()
							raw, err := tx.Get(sp, key(k))
							if err != nil {
								t.Errorf("node %d get k%d: %v", n.ID(), k, err)
								return
							}
							v, err := strconv.ParseInt(string(raw), 10, 64)
							if err != nil {
								t.Errorf("node %d read %q from k%d: a write that never committed", n.ID(), raw, k)
								return
							}
							if v < floor {
								t.Errorf("node %d read k%d=%d after the commit of %d had returned", n.ID(), k, v, floor)
								return
							}
							if ceil := calling[k].Load(); v > ceil {
								t.Errorf("node %d read k%d=%d before its commit was called (newest called: %d)", n.ID(), k, v, ceil)
								return
							}
						}
						if err := tx.Commit(); err != nil {
							t.Error(err)
							return
						}
					}
				}(c.Node(node))
			}

			w := c.Node(2)
			for i := 0; i < commits && !t.Failed(); i++ {
				k := i % keys
				next := committed[k].Load() + 1
				tx, err := w.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if i%3 != 0 {
					// An intermediate write nobody may ever see.
					if err := tx.Update(sp, key(k), []byte("marker")); err != nil {
						t.Fatal(err)
					}
				}
				if i%5 == 4 {
					if err := tx.Rollback(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := tx.Update(sp, key(k), []byte(strconv.FormatInt(next, 10))); err != nil {
					t.Fatal(err)
				}
				calling[k].Store(next)
				mustCommit(t, tx)
				committed[k].Store(next)
			}
			close(done)
			wg.Wait()
		})
	}
}

// tsoReads counts the one-sided reads of the TSO word that node has issued
// since the counter was installed. The fabric's own stats count reads of every
// region together; the injector hook sees the region name.
func tsoReads(c *Cluster, node common.NodeID) *atomic.Int64 {
	var n atomic.Int64
	c.Fabric().SetInjector(func(op common.FaultOp) common.FaultDecision {
		if op.Class == common.FaultRead && op.Name == txfusion.RegionTSO && op.Src == node {
			n.Add(1)
		}
		return common.FaultDecision{}
	})
	return &n
}

// TestLazyViewTSOReadCounts pins down when a statement goes to the TSO.
func TestLazyViewTSOReadCounts(t *testing.T) {
	const rows = 8
	key := func(i int) []byte { return []byte(fmt.Sprintf("r%d", i)) }
	for _, cc := range []string{"2pl", "occ"} {
		cc := cc
		t.Run(cc, func(t *testing.T) {
			c, sp := lazyViewCluster(t, Config{CC: cc, RecycleInterval: -1})
			n1, n2 := c.Node(1), c.Node(2)
			for i := 0; i < rows; i++ {
				put(t, n1, sp, string(key(i)), "v")
			}
			reads := tsoReads(c, n1.ID())
			expect := func(what string, want int64) {
				t.Helper()
				if got := reads.Swap(0); got != want {
					t.Errorf("%s: %d TSO reads, want %d", what, got, want)
				}
			}

			// Rows last written by this node: its own commit CSNs are the
			// bound, every version is at or below it.
			tx, err := n1.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				if _, err := tx.Get(sp, key(i)); err != nil {
					t.Fatal(err)
				}
			}
			expect("warm RC Gets of locally written rows", 0)
			for i := 0; i < 2; i++ {
				if _, err := tx.GetForUpdate(sp, key(i)); err != nil {
					t.Fatal(err)
				}
			}
			expect("GetForUpdate", 0)
			if _, err := tx.Scan(sp, nil, nil, 0); err != nil {
				t.Fatal(err)
			}
			expect("RC Scan (one fetched snapshot)", 1)
			mustCommit(t, tx)
			reads.Store(0)

			// A foreign commit above the bound costs the reader one fetch,
			// which lifts the bound past it.
			put(t, n2, sp, string(key(0)), "foreign")
			tx, err = n1.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if v, err := tx.Get(sp, key(0)); err != nil || string(v) != "foreign" {
				t.Fatalf("get after foreign commit: %q %v", v, err)
			}
			expect("Get meeting a foreign version above the bound", 1)
			if v, err := tx.Get(sp, key(0)); err != nil || string(v) != "foreign" {
				t.Fatalf("second get: %q %v", v, err)
			}
			expect("the same Get again", 0)
			mustCommit(t, tx)

			// A foreign transaction still in flight never needs a fetch: it
			// is invisible under any timestamp.
			open, err := n2.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := open.Update(sp, key(1), []byte("in-flight")); err != nil {
				t.Fatal(err)
			}
			reads.Store(0)
			if v, err := get(t, n1, sp, string(key(1))); err != nil || v != "v" {
				t.Fatalf("get under an in-flight foreign write: %q %v", v, err)
			}
			expect("Get under an in-flight foreign write", 0)
			if err := open.Rollback(); err != nil {
				t.Fatal(err)
			}

			// Snapshot isolation keeps its one fetch at Begin and none after.
			reads.Store(0)
			si, err := n1.BeginIso(SnapshotIsolation)
			if err != nil {
				t.Fatal(err)
			}
			expect("SI Begin", 1)
			for i := 0; i < rows; i++ {
				if _, err := si.Get(sp, key(i)); err != nil {
					t.Fatal(err)
				}
			}
			expect("SI Gets", 0)
			mustCommit(t, si)
		})
	}

	t.Run("DisableLamport", func(t *testing.T) {
		c, sp := lazyViewCluster(t, Config{DisableLamport: true, RecycleInterval: -1})
		n1 := c.Node(1)
		for i := 0; i < rows; i++ {
			put(t, n1, sp, string(key(i)), "v")
		}
		reads := tsoReads(c, n1.ID())
		tx, err := n1.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := tx.Get(sp, key(i)); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
		if got := reads.Load(); got != rows {
			t.Errorf("%d Gets with Lamport reuse off: %d TSO reads, want one per statement", rows, got)
		}
	})
}

// TestLazyViewHoldsMinView: the lower bound a lazy point read registers holds
// the global minimum view back for as long as the statement runs, exactly
// like a fetched view would, and lets go when it ends.
func TestLazyViewHoldsMinView(t *testing.T) {
	c, sp := lazyViewCluster(t, Config{RecycleInterval: -1})
	n1, n2 := c.Node(1), c.Node(2)
	put(t, n1, sp, "k", "old")
	// Node 2 takes the page and moves the TSO well past node 1's bound.
	for i := 0; i < 5; i++ {
		put(t, n2, sp, "k", fmt.Sprintf("new%d", i))
	}
	bound := n1.TxFusion().ViewBound()
	if tso := c.txSrv.CurrentTSO(); bound == 0 || bound >= tso {
		t.Fatalf("node 1 bound %d, TSO %d: want a bound below the oracle", bound, tso)
	}

	// Park node 1's Get mid-statement, on the DBP read of the page node 2
	// wrote: by then the statement's view is registered.
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c.Fabric().SetInjector(func(op common.FaultOp) common.FaultDecision {
		if op.Class == common.FaultRead && op.Name == bufferfusion.RegionDBP && op.Src == n1.ID() {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return common.FaultDecision{}
	})
	got := make(chan string, 1)
	go func() {
		tx, err := n1.Begin()
		if err != nil {
			got <- err.Error()
			return
		}
		defer tx.Commit()
		v, err := tx.Get(sp, []byte("k"))
		if err != nil {
			v = []byte(err.Error())
		}
		got <- string(v)
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("node 1's Get never reached the DBP read")
	}
	if _, err := n2.TxFusion().ReportMinView(); err != nil {
		t.Fatal(err)
	}
	gmv, err := n1.TxFusion().ReportMinView()
	if err != nil {
		t.Fatal(err)
	}
	if gmv != bound {
		t.Errorf("global min view %d while a lazy Get holds bound %d", gmv, bound)
	}
	close(release)
	if v := <-got; v != "new4" {
		t.Errorf("lazy Get returned %q, want the newest commit", v)
	}
	if gmv, err = n1.TxFusion().ReportMinView(); err != nil || gmv <= bound {
		t.Errorf("global min view %d (%v) after the Get ended, want it past %d", gmv, err, bound)
	}
}
