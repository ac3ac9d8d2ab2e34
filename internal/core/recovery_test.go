package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
)

func TestNodeRestartDurability(t *testing.T) {
	c, sp := testCluster(t, 2)
	// Committed data from node 1, including un-checkpointed pages.
	for i := 0; i < 50; i++ {
		put(t, c.Node(1), sp, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}
	c.CrashNode(1)
	n1, err := c.RestartNode(1)
	if err != nil {
		t.Fatal(err)
	}
	// The fence is lifted after recovery: peers write again immediately.
	put(t, c.Node(2), sp, "peer", "alive")
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%03d", i)
		want := fmt.Sprintf("v%d", i)
		if v, err := get(t, n1, sp, key); err != nil || v != want {
			t.Fatalf("%s after restart = %q, %v", key, v, err)
		}
	}
	if v, _ := get(t, n1, sp, "peer"); v != "alive" {
		t.Fatal("peer write lost")
	}
}

func TestNodeCrashRollsBackUncommitted(t *testing.T) {
	c, sp := testCluster(t, 2)
	put(t, c.Node(1), sp, "k", "committed")

	// Node 1 leaves an uncommitted update behind, then crashes.
	tx, _ := c.Node(1).Begin()
	if err := tx.Update(sp, []byte("k"), []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(sp, []byte("ghost"), []byte("boo")); err != nil {
		t.Fatal(err)
	}
	// Force the dirty state into the log (simulates the log racing ahead
	// of the commit record).
	c.Node(1).wal.Sync(c.Node(1).wal.End())
	c.CrashNode(1)

	if _, err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if v, err := get(t, c.Node(2), sp, "k"); err != nil || v != "committed" {
		t.Fatalf("k after recovery = %q, %v", v, err)
	}
	if _, err := get(t, c.Node(2), sp, "ghost"); !errors.Is(err, common.ErrNotFound) {
		t.Fatalf("ghost row survived recovery: %v", err)
	}
}

func TestCrashedNodeRowsResolveAfterRecovery(t *testing.T) {
	c, sp := testCluster(t, 2)
	put(t, c.Node(1), sp, "k", "old")

	tx, _ := c.Node(1).Begin()
	if err := tx.Update(sp, []byte("k"), []byte("locked")); err != nil {
		t.Fatal(err)
	}
	c.Node(1).wal.Sync(c.Node(1).wal.End())
	// Push the dirty page so node 2 can physically see the row while the
	// writer is still uncommitted.
	if err := c.Node(1).lbp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	c.CrashNode(1)

	// A writer on node 2 must not be able to steal the row silently: it
	// blocks (page fenced / holder unknown) and eventually times out or
	// succeeds after restart. Restart in parallel.
	res := make(chan error, 1)
	go func() {
		tx2, err := c.Node(2).Begin()
		if err != nil {
			res <- err
			return
		}
		if err := tx2.Update(sp, []byte("k"), []byte("new")); err != nil {
			tx2.Rollback()
			res <- err
			return
		}
		res <- tx2.Commit()
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if err := <-res; err != nil && !common.IsRetryable(err) {
		t.Fatalf("node 2 writer: %v", err)
	}
	// After recovery the row is consistent: the crashed writer's version
	// was rolled back, so the value is either still old (writer timed
	// out) or new — never "locked".
	v, err := get(t, c.Node(1), sp, "k")
	if err != nil || (v != "old" && v != "new") {
		t.Fatalf("post-recovery k = %q, %v", v, err)
	}
}

func TestNodeCrashUnderLoadNoDataLoss(t *testing.T) {
	c, sp := testCluster(t, 2)
	var committed sync.Map
	var seq atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	worker := func(nodeID common.NodeID) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := c.Node(int(nodeID))
			if n == nil || !n.Live() {
				time.Sleep(time.Millisecond)
				continue
			}
			id := seq.Add(1)
			key := fmt.Sprintf("n%d-%06d", nodeID, id)
			tx, err := n.Begin()
			if err != nil {
				continue
			}
			if err := tx.Insert(sp, []byte(key), []byte("v")); err != nil {
				tx.Rollback()
				continue
			}
			if err := tx.Commit(); err == nil {
				committed.Store(key, true)
			}
		}
	}
	wg.Add(2)
	go worker(1)
	go worker(2)

	time.Sleep(100 * time.Millisecond)
	c.CrashNode(1)
	time.Sleep(50 * time.Millisecond)
	if _, err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every committed key must be durable and visible from node 2.
	tx, err := c.Node(2).Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	missing := 0
	committed.Range(func(k, _ any) bool {
		if _, err := tx.Get(sp, []byte(k.(string))); err != nil {
			missing++
			t.Errorf("committed key %s lost: %v", k, err)
		}
		return missing < 10
	})
}

func TestFullClusterRecovery(t *testing.T) {
	c, sp := testCluster(t, 3)
	// Interleave writes from all nodes, including updates to shared keys
	// so per-page logs span all three streams.
	for round := 0; round < 30; round++ {
		for i, n := range c.Nodes() {
			put(t, n, sp, fmt.Sprintf("own-%d-%02d", i, round), fmt.Sprintf("r%d", round))
			put(t, n, sp, "shared", fmt.Sprintf("node%d-round%d", i, round))
		}
	}
	wantShared, _ := get(t, c.Node(1), sp, "shared")

	// Leave an uncommitted transaction hanging at crash time.
	tx, _ := c.Node(2).Begin()
	if err := tx.Update(sp, []byte("shared"), []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	c.Node(2).wal.Sync(c.Node(2).wal.End())

	c.CrashAll()
	if err := c.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := get(t, c.Node(1), sp, "shared"); err != nil || v != wantShared {
		t.Fatalf("shared after cluster recovery = %q, %v (want %q)", v, err, wantShared)
	}
	for i := 0; i < 3; i++ {
		for round := 0; round < 30; round++ {
			key := fmt.Sprintf("own-%d-%02d", i, round)
			if v, err := get(t, c.Node(1+i), sp, key); err != nil || v != fmt.Sprintf("r%d", round) {
				t.Fatalf("%s = %q, %v", key, v, err)
			}
		}
	}
	// The recovered tree must be structurally sound.
	si, _ := c.lookupSpaceByID(sp)
	if _, err := VerifyTree(c.store, si.Anchor); err != nil {
		t.Fatal(err)
	}
}

func TestFullClusterRecoveryWithSplits(t *testing.T) {
	c, sp := testCluster(t, 2)
	// Enough data to force splits across both nodes' logs.
	for i := 0; i < 600; i++ {
		n := c.Node(1 + i%2)
		put(t, n, sp, fmt.Sprintf("key-%05d", i), string(make([]byte, 64)))
	}
	c.CrashAll()
	if err := c.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	si, _ := c.lookupSpaceByID(sp)
	rows, err := VerifyTree(c.store, si.Anchor)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 600 {
		t.Fatalf("recovered tree has %d rows, want 600", rows)
	}
	// Fresh nodes can read everything.
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 299, 598, 599} {
		if _, err := get(t, c.Node(1), sp, fmt.Sprintf("key-%05d", i)); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
}

// fuzzHistory runs ops seeded single-key upsert transactions against random
// nodes of c — one in ten rolled back — over keys distinct keys, values padded
// by pad bytes, and records every acknowledged commit in expect. Given the
// same rng state it issues the same history on any cluster.
func fuzzHistory(t *testing.T, c *Cluster, sp common.SpaceID, rng *rand.Rand, tag string, ops, keys, pad int, expect map[string]string) {
	t.Helper()
	nodes := len(c.Nodes())
	for i := 0; i < ops; i++ {
		n := c.Node(1 + rng.Intn(nodes))
		key := fmt.Sprintf("k%03d", rng.Intn(keys))
		val := fmt.Sprintf("%s%d%*s", tag, i, pad, "")
		tx, err := n.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Upsert(sp, []byte(key), []byte(val)); err != nil {
			tx.Rollback()
			continue
		}
		if rng.Intn(10) == 0 {
			tx.Rollback()
			continue
		}
		if err := tx.Commit(); err == nil {
			expect[key] = val
		}
	}
}

func TestRecoveryFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz-style test skipped in -short")
	}
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, sp := testCluster(t, 2)
			expect := map[string]string{}
			fuzzHistory(t, c, sp, rand.New(rand.NewSource(seed)), "v", 200, 60, 0, expect)
			c.CrashAll()
			if err := c.RecoverAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.AddNode(); err != nil {
				t.Fatal(err)
			}
			for key, want := range expect {
				if v, err := get(t, c.Node(1), sp, key); err != nil || v != want {
					t.Fatalf("%s = %q, %v (want %q)", key, v, err, want)
				}
			}
		})
	}
}

func TestRestartPreservesTrxIDMonotonicity(t *testing.T) {
	c, sp := testCluster(t, 1)
	put(t, c.Node(1), sp, "k", "v")
	tx, _ := c.Node(1).Begin()
	gBefore := tx.GTrxID()
	tx.Rollback()
	c.CrashNode(1)
	n, err := c.RestartNode(1)
	if err != nil {
		t.Fatal(err)
	}
	tx2, _ := n.Begin()
	defer tx2.Rollback()
	if tx2.GTrxID().Trx <= gBefore.Trx {
		t.Fatalf("trx id %d not above pre-crash %d", tx2.GTrxID().Trx, gBefore.Trx)
	}
}

// TestCrashStorm subjects a 3-node cluster to a randomized sequence of
// single-node crashes and restarts while writers run on the surviving
// nodes, then verifies every acknowledged commit and full tree integrity.
func TestCrashStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test skipped in -short")
	}
	for seed := int64(0); seed < 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, sp := testCluster(t, 3)
			var committed sync.Map
			var seq atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup

			for nodeID := 1; nodeID <= 3; nodeID++ {
				wg.Add(1)
				go func(nodeID int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						n := c.Node(nodeID)
						if n == nil || !n.Live() {
							time.Sleep(time.Millisecond)
							continue
						}
						key := fmt.Sprintf("n%d-%06d", nodeID, seq.Add(1))
						tx, err := n.Begin()
						if err != nil {
							continue
						}
						if err := tx.Insert(sp, []byte(key), []byte("v")); err != nil {
							tx.Rollback()
							continue
						}
						if err := tx.Commit(); err == nil {
							committed.Store(key, true)
						}
					}
				}(nodeID)
			}

			// The storm: crash/restart random nodes, occasionally two at
			// once, always restarting before the next round.
			for round := 0; round < 4; round++ {
				time.Sleep(time.Duration(20+rng.Intn(40)) * time.Millisecond)
				victims := []common.NodeID{common.NodeID(1 + rng.Intn(3))}
				if rng.Intn(3) == 0 {
					other := common.NodeID(1 + rng.Intn(3))
					if other != victims[0] {
						victims = append(victims, other)
					}
				}
				for _, v := range victims {
					c.CrashNode(v)
				}
				time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
				for _, v := range victims {
					// A restart replays only its own fence set, so it never
					// waits on a live node: 2 s is a fifth of the PLock
					// server's wait backstop.
					start := time.Now()
					if _, err := c.RestartNode(v); err != nil {
						t.Fatalf("round %d: restart node %d: %v", round, v, err)
					}
					if d := time.Since(start); d > 2*time.Second {
						t.Fatalf("round %d: restart node %d took %v", round, v, d)
					}
				}
			}
			close(stop)
			wg.Wait()

			// Every acknowledged commit must be visible from every node.
			total := 0
			committed.Range(func(_, _ any) bool { total++; return true })
			if total == 0 {
				t.Fatal("storm committed nothing")
			}
			for nodeID := 1; nodeID <= 3; nodeID++ {
				tx, err := c.Node(nodeID).Begin()
				if err != nil {
					t.Fatal(err)
				}
				missing := 0
				committed.Range(func(k, _ any) bool {
					if _, err := tx.Get(sp, []byte(k.(string))); err != nil {
						t.Errorf("node %d: committed key %s: %v", nodeID, k, err)
						missing++
					}
					return missing < 5
				})
				tx.Commit()
				if missing > 0 {
					t.Fatalf("node %d lost %d+ committed keys of %d", nodeID, missing, total)
				}
			}
			// Structural integrity via a full-cluster recovery pass.
			c.CrashAll()
			if err := c.RecoverAll(); err != nil {
				t.Fatal(err)
			}
			si, _ := c.lookupSpaceByID(sp)
			if _, err := VerifyTree(c.store, si.Anchor); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRollbackDeferredWhenPageUnreachable: a live rollback that cannot reach
// one of its pages (here: the page migrated to a peer and the storage fetch
// fails, as in a network partition) must NOT free the transaction's TIT
// slot. A freed slot resolves CSNMin — "committed, visible to all" — which
// would publish the rolled-back version the moment the fault heals. The
// rollback has to park the leftover undo entries, keep the slot active (the
// version stays invisible), and finish the compensation in the background
// once the page is reachable again.
func TestRollbackDeferredWhenPageUnreachable(t *testing.T) {
	c, sp, heal := deferRollback(t)
	n1, n2 := c.Node(1), c.Node(2)
	// The slot is still active, so the leaked "bad" version stays invisible.
	if v, err := get(t, n2, sp, "k"); err != nil || v != "orig" {
		t.Fatalf("read during deferred rollback = %q, %v; want orig (aborted version leaked)", v, err)
	}

	// Heal. The background compensation must remove the version and free
	// the slot; a writer parked on the row's active version then proceeds.
	heal()
	put(t, n2, sp, "k", "after")
	if v, err := get(t, n2, sp, "k"); err != nil || v != "after" {
		t.Fatalf("read after heal = %q, %v; want after", v, err)
	}
	if v, err := get(t, n1, sp, "k"); err != nil || v != "after" {
		t.Fatalf("read after heal via node 1 = %q, %v; want after", v, err)
	}
}

// TestCheckpointRefusesDeferredRollback is ROADMAP 0(g): a rollback whose
// compensation finishes in the background has returned and released its
// activeTx count, but its undo exists only in the log — a Checkpoint then
// would truncate it. Checkpoint refuses while the compensation is pending
// and succeeds once the heal drains it.
func TestCheckpointRefusesDeferredRollback(t *testing.T) {
	c, _, heal := deferRollback(t)
	if err := c.Checkpoint(); err == nil || !strings.Contains(err.Error(), "pending compensations on node 1") {
		t.Fatalf("Checkpoint during a deferred rollback = %v; want the pending-compensation refusal", err)
	}
	heal()
	deadline := time.Now().Add(5 * time.Second)
	for err := c.Checkpoint(); err != nil; err = c.Checkpoint() {
		if time.Now().After(deadline) {
			t.Fatalf("Checkpoint after the heal: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deferRollback leaves node 1 with a rollback whose page it cannot reach:
// node 1 updates k, node 2 steals the page, then every fabric op node 1
// issues and every storage page read fails while node 1 rolls back. heal
// lifts the partition.
func deferRollback(t *testing.T) (c *Cluster, sp common.SpaceID, heal func()) {
	t.Helper()
	c, sp = testCluster(t, 2)
	n1, n2 := c.Node(1), c.Node(2)
	put(t, n1, sp, "k", "orig")

	tx, err := n1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(sp, []byte("k"), []byte("bad")); err != nil {
		t.Fatal(err)
	}

	// Steal the page mid-transaction: node 2 writes a sibling row, which
	// revokes node 1's X PLock and moves the page (with the uncommitted
	// "bad" version on it) to node 2. Node 1's rollback must now re-fetch
	// the page image to compensate.
	put(t, n2, sp, "k2", "x")

	// Partition node 1: every fabric op it issues and every storage page
	// read fail, so the rollback can neither re-acquire the PLock nor
	// re-fetch the page image — exactly a network partition's view.
	var blocked atomic.Bool
	blocked.Store(true)
	c.fabric.SetInjector(func(op common.FaultOp) common.FaultDecision {
		if op.Src == 1 && blocked.Load() {
			return common.FaultDecision{Err: common.ErrInjected}
		}
		return common.FaultDecision{}
	})
	c.store.SetInjector(func(op common.FaultOp) common.FaultDecision {
		if op.Class == common.FaultPageRead && blocked.Load() {
			return common.FaultDecision{Err: common.ErrInjected}
		}
		return common.FaultDecision{}
	})

	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := n1.DeferredAborts.Load(); got != 1 {
		t.Fatalf("DeferredAborts = %d, want 1 (rollback with an unreachable page must defer)", got)
	}
	return c, sp, func() { blocked.Store(false) }
}
