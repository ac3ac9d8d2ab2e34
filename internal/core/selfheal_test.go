package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/chaos"
	"polardbmp/internal/common"
	"polardbmp/internal/membership"
)

// selfHealCluster builds a cluster with lease-based failure detection on.
// The lease timeout must be generous: under -race on a loaded single-core
// host the scheduler can starve a perfectly healthy node's renew goroutine
// for tens of milliseconds, and a spurious eviction fails the test.
func selfHealCluster(t testing.TB, n int) (*Cluster, common.SpaceID) {
	t.Helper()
	c := NewCluster(Config{
		LockWaitTimeout:    2 * time.Second,
		RecycleInterval:    5 * time.Millisecond,
		SelfHeal:           true,
		LeaseRenewInterval: 10 * time.Millisecond,
		LeaseTimeout:       400 * time.Millisecond,
	})
	for i := 0; i < n; i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := c.CreateSpace("t")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, sp
}

func waitTakeovers(t testing.TB, c *Cluster, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Membership.Takeovers < want {
		if time.Now().After(deadline) {
			st := c.Stats()
			t.Fatalf("takeovers = %d after 10s, want >= %d (epoch=%d bumps=%d renewals=%d)",
				st.Membership.Takeovers, want, st.Membership.Epoch, st.Membership.EpochBumps, st.Membership.LeaseRenewals)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSelfHealTakeover is the headline scenario: a node is fail-stopped with
// no notification whatsoever (KillNode, not CrashNode); the survivors must
// detect the silence through the lease table, fence the node under a new
// epoch, recover its committed writes and roll back its in-doubt transaction
// — all without any operator call — and the node must be able to rejoin.
func TestSelfHealTakeover(t *testing.T) {
	c, sp := selfHealCluster(t, 3)

	for i := 0; i < 30; i++ {
		put(t, c.Node(i%3+1), sp, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}
	// Leave an in-doubt transaction on the victim: redo durable, no commit
	// record. Survivor-side takeover must roll it back.
	n3 := c.Node(3)
	tx, err := n3.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(sp, []byte("ghost"), []byte("boo")); err != nil {
		t.Fatal(err)
	}
	n3.wal.Sync(n3.wal.End())

	epoch0 := c.Stats().Membership.Epoch
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	waitTakeovers(t, c, 1)

	st := c.Stats()
	if st.Membership.Epoch <= epoch0 {
		t.Fatalf("epoch %d did not advance past %d", st.Membership.Epoch, epoch0)
	}
	if st.Membership.EpochBumps < 1 {
		t.Fatalf("EpochBumps = %d, want >= 1", st.Membership.EpochBumps)
	}
	if st.Membership.TakeoverMean <= 0 {
		t.Fatalf("TakeoverMean = %v, want > 0", st.Membership.TakeoverMean)
	}

	// Survivors serve everything the dead node committed; its in-doubt
	// insert is gone. No RestartNode has happened.
	for ni := 1; ni <= 2; ni++ {
		for i := 0; i < 30; i++ {
			key := fmt.Sprintf("k%03d", i)
			want := fmt.Sprintf("v%d", i)
			if v, err := get(t, c.Node(ni), sp, key); err != nil || v != want {
				t.Fatalf("node %d: %s = %q, %v (want %q)", ni, key, v, err, want)
			}
		}
		if _, err := get(t, c.Node(ni), sp, "ghost"); !errors.Is(err, common.ErrNotFound) {
			t.Fatalf("node %d: in-doubt insert resurfaced: %v", ni, err)
		}
		put(t, c.Node(ni), sp, fmt.Sprintf("after-%d", ni), "ok")
	}

	// The dead node rejoins under a fresh incarnation epoch and serves.
	n3b, err := c.RestartNode(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%03d", i)
		if v, err := get(t, n3b, sp, key); err != nil || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("restarted node: %s = %q, %v", key, v, err)
		}
	}
	put(t, n3b, sp, "rejoined", "yes")
	if v, _ := get(t, c.Node(1), sp, "rejoined"); v != "yes" {
		t.Fatal("write from the rejoined node not visible to peers")
	}
}

// TestRestartNodeUnderSurvivorTraffic rejoins a taken-over node while the
// survivors are committing at full tilt: the restart must not disturb them,
// and the rejoined node must see every row committed meanwhile.
func TestRestartNodeUnderSurvivorTraffic(t *testing.T) {
	c, sp := selfHealCluster(t, 3)
	put(t, c.Node(3), sp, "pre", "crash")
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	waitTakeovers(t, c, 1)

	var (
		mu        sync.Mutex
		committed []string
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	for ni := 1; ni <= 2; ni++ {
		ni := ni
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("t%d-k%04d", ni, i)
				tx, err := c.Node(ni).Begin()
				if err != nil {
					t.Errorf("node %d begin: %v", ni, err)
					return
				}
				if err := tx.Upsert(sp, []byte(key), []byte("v")); err != nil {
					t.Errorf("node %d upsert: %v", ni, err)
					_ = tx.Rollback()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("node %d commit: %v", ni, err)
					return
				}
				mu.Lock()
				committed = append(committed, key)
				mu.Unlock()
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let traffic build
	n3, err := c.RestartNode(3)
	if err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	put(t, n3, sp, "during", "traffic") // the rejoined node serves immediately
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	mu.Lock()
	keys := append([]string(nil), committed...)
	mu.Unlock()
	if len(keys) == 0 {
		t.Fatal("survivors committed nothing")
	}
	for _, key := range append(keys, "pre", "during") {
		if v, err := get(t, n3, sp, key); err != nil || v != firstOf(key) {
			t.Fatalf("rejoined node: %s = %q, %v", key, v, err)
		}
	}
}

func firstOf(key string) string {
	switch key {
	case "pre":
		return "crash"
	case "during":
		return "traffic"
	}
	return "v"
}

// TestZombieCommitRejected fences a node while it has a transaction in
// flight and asserts the commit-time lease self-check aborts the
// transaction with ErrStaleEpoch instead of publishing it.
func TestZombieCommitRejected(t *testing.T) {
	c, sp := selfHealCluster(t, 2)
	n2 := c.Node(2)
	tx, err := n2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(sp, []byte("zombie"), []byte("w")); err != nil {
		t.Fatal(err)
	}

	// Evict node 2 through the membership table the way a survivor would:
	// observe its heartbeat, then fence it. The heartbeat may advance
	// between the read and the eviction (a false suspicion); retry until
	// the observation sticks.
	conn := c.fabric.From(1)
	tbl := c.Members()
	won := false
	var evictEpoch common.Epoch
	for i := 0; i < 10000 && !won; i++ {
		var slot [24]byte
		if err := conn.Read(common.PMFSNode, membership.Region, membership.SlotOff(2), slot[:]); err != nil {
			t.Fatal(err)
		}
		hb := binary.LittleEndian.Uint64(slot[8:16])
		won, evictEpoch = tbl.Evict(1, 2, hb, tbl.CurrentEpoch())
	}
	if !won {
		t.Fatal("could not win the eviction")
	}

	// The zombie's agent latches its eviction on its next renewal tick —
	// unless node 1's detector sweeps the fenced slot first and the
	// takeover's STONITH stops the agent before that tick; then wait the
	// takeover out (a commit racing its log fence is a different test).
	zombieOut := func() bool { return n2.agent.Evicted() || c.takeovers.Load() > 0 }
	deadline := time.Now().Add(5 * time.Second)
	for !zombieOut() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !zombieOut() {
		t.Fatal("zombie neither observed its own eviction nor was taken over")
	}

	// The zombie is rejected either by the epoch gate (ErrStaleEpoch, before
	// any survivor finishes the takeover) or by the takeover's STONITH
	// (ErrNodeDown: node 1's detector notices the fenced slot and completes
	// the recovery on its own — it does not wait for the eviction winner).
	zombieRejected := func(err error) bool {
		return errors.Is(err, common.ErrStaleEpoch) || errors.Is(err, common.ErrNodeDown)
	}
	if err := tx.Commit(); !zombieRejected(err) {
		t.Fatalf("zombie commit = %v, want ErrStaleEpoch or ErrNodeDown", err)
	}
	if _, err := n2.Begin(); !zombieRejected(err) {
		t.Fatalf("begin on evicted node = %v, want ErrStaleEpoch or ErrNodeDown", err)
	}

	// An eviction winner owns the takeover, but any survivor's detector may
	// have finished it already; running it again is an idempotent no-op.
	c.takeover(2, evictEpoch, c.Node(1))
	if _, err := get(t, c.Node(1), sp, "zombie"); !errors.Is(err, common.ErrNotFound) {
		t.Fatalf("zombie write published: %v", err)
	}
}

// TestTakeoverLockWaitBounded: a survivor that cannot get the takeover lock
// gives up after a bounded number of lease timeouts and leaves the reason in
// the stats, instead of polling a wedged holder forever.
func TestTakeoverLockWaitBounded(t *testing.T) {
	c := NewCluster(Config{RecycleInterval: -1, LeaseTimeout: 5 * time.Millisecond})
	t.Cleanup(c.Close)
	n1, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	c.takeoverMu.Lock() // the wedged holder
	defer c.takeoverMu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.takeover(2, 0, n1)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("takeover still waiting for the lock after 10s (bound is 32 x 5ms)")
	}
	m := c.Stats().Membership
	if m.TakeoverFails != 1 || !strings.Contains(m.TakeoverErr, "abandoned") {
		t.Fatalf("takeover_fails=%d takeover_err=%q, want 1 and an abandon reason", m.TakeoverFails, m.TakeoverErr)
	}
}

// TestSlowNodeLosesLeaseAndAborts is the slow-but-alive regression: chaos
// delays every fabric op touching node 3 far past the lease timeout, so the
// survivors genuinely evict it while its process is still running with a
// transaction in flight. The stalled transaction must abort — via the lease
// self-check or the takeover's STONITH — and its write must never surface.
func TestSlowNodeLosesLeaseAndAborts(t *testing.T) {
	c, sp := selfHealCluster(t, 3)
	n3 := c.Node(3)
	tx, err := n3.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(sp, []byte("slow-zombie"), []byte("w")); err != nil {
		t.Fatal(err)
	}

	epoch0 := c.Stats().Membership.Epoch
	// The injected delay must exceed the lease timeout by a wide margin or
	// the crawling heartbeats still arrive in time.
	eng := chaos.MustNew(1, chaos.SlowNodePlan(3, time.Second))
	eng.Install(c.Fabric(), nil)
	waitTakeovers(t, c, 1)
	chaos.Uninstall(c.Fabric(), nil)

	err = tx.Commit()
	if err == nil {
		t.Fatal("commit on an evicted node succeeded")
	}
	if !errors.Is(err, common.ErrStaleEpoch) && !errors.Is(err, common.ErrNodeDown) &&
		!errors.Is(err, common.ErrClosed) && !errors.Is(err, common.ErrTxDone) {
		t.Fatalf("evicted commit = %v, want a fencing/shutdown error", err)
	}
	st := c.Stats()
	if st.Membership.Epoch <= epoch0 {
		t.Fatalf("epoch %d did not advance past %d", st.Membership.Epoch, epoch0)
	}
	for ni := 1; ni <= 2; ni++ {
		if _, err := get(t, c.Node(ni), sp, "slow-zombie"); !errors.Is(err, common.ErrNotFound) {
			t.Fatalf("node %d: evicted node's write published: %v", ni, err)
		}
	}
}

// TestCrashRestartTypedErrors pins the crash/restart API contract: unknown
// ids are ErrUnknownNode, double-crashes are idempotent ErrNodeDown, and
// neither has side effects.
func TestCrashRestartTypedErrors(t *testing.T) {
	c, sp := testCluster(t, 2)
	put(t, c.Node(1), sp, "k", "v")

	if err := c.CrashNode(0); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("CrashNode(0) = %v, want ErrUnknownNode", err)
	}
	if err := c.CrashNode(99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("CrashNode(99) = %v, want ErrUnknownNode", err)
	}
	if err := c.KillNode(99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("KillNode(99) = %v, want ErrUnknownNode", err)
	}
	if _, err := c.RestartNode(99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("RestartNode(99) = %v, want ErrUnknownNode", err)
	}

	if err := c.CrashNode(2); err != nil {
		t.Fatalf("CrashNode(2) = %v", err)
	}
	if err := c.CrashNode(2); !errors.Is(err, common.ErrNodeDown) {
		t.Fatalf("second CrashNode(2) = %v, want ErrNodeDown", err)
	}
	if err := c.KillNode(2); !errors.Is(err, common.ErrNodeDown) {
		t.Fatalf("KillNode on down node = %v, want ErrNodeDown", err)
	}

	// The errors had no side effects: node 1 still serves, node 2 restarts.
	if v, err := get(t, c.Node(1), sp, "k"); err != nil || v != "v" {
		t.Fatalf("node 1 disturbed: %q, %v", v, err)
	}
	if _, err := c.RestartNode(2); err != nil {
		t.Fatalf("RestartNode(2) = %v", err)
	}
	if _, err := c.RestartNode(2); err == nil {
		t.Fatal("RestartNode on a live node succeeded")
	}
}

// TestDroppedDBPReadIsNotARecycledFrame: a DBP frame read the fabric dropped
// is a transient fault of the read, not "the frame was recycled, the page is
// in storage". Storage holds the page only as of the last eviction or
// checkpoint — an older image, or none — and fetch used to serve that and
// push it into the DBP as clean, losing the newer committed version for
// every node (ROADMAP 0(l)).
func TestDroppedDBPReadIsNotARecycledFrame(t *testing.T) {
	for _, checkpoint := range []bool{true, false} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			c := NewCluster(Config{LockWaitTimeout: 2 * time.Second, RecycleInterval: -1, DisableRetry: true})
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
			put(t, c.Node(1), sp, "k", "v")
			if checkpoint {
				if err := c.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			put(t, c.Node(1), sp, "k", "v2")

			chaos.MustNew(1, chaos.Plan{Name: "drop-dbp-reads", Rules: []chaos.Rule{{
				Name: "drop", Layer: common.FaultLayerRDMA, Classes: []string{common.FaultRead},
				Src: []common.NodeID{2}, Target: bufferfusion.RegionDBP, Prob: 1,
				Action: chaos.Action{Kind: chaos.ActDrop},
			}}}).Install(c.Fabric(), nil)
			if v, err := get(t, c.Node(2), sp, "k"); !common.IsTransient(err) {
				t.Fatalf("node 2 read through a dropped DBP read = %q, %v; want the transient fault", v, err)
			}
			chaos.Uninstall(c.Fabric(), nil)
			for ni := 1; ni <= 2; ni++ {
				if v, err := get(t, c.Node(ni), sp, "k"); err != nil || v != "v2" {
					t.Fatalf("node %d on the quiet fabric reads %q, %v; want v2", ni, v, err)
				}
			}
		})
	}
}
