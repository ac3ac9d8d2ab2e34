package core

import (
	"fmt"
	"testing"
	"time"
)

// TestCommitFabricOpBudget locks down the per-commit fabric cost of the hot
// path: a warmed single-row read-committed update commit on a quiet 2-node
// cluster. The batching work (doorbell verbs, TSO group allocation, vectored
// CTS stamping/push) exists to keep these numbers small; a regression that
// splits a batch back into per-item verbs trips this test.
//
// The documented budget per commit (see DESIGN.md §9); the warm
// uncontended path measures reads=0, writes=0, atomics=1, rpcs=0 — the
// whole commit is one TSO fetch-add, because the commit-time page push is
// reserved for pages a peer is waiting on:
//
//   - atomics ≤ 1: one TSO fetch-add (zero when the commit-time combiner
//     folds it into a neighbour's block);
//   - reads ≤ 1: commit-path TIT/GMV lookups; warm caches need none;
//   - writes ≤ 2: one vectored doorbell push of every contended touched
//     page image, plus headroom for a TIT write when the slot is remote;
//   - RPCs ≤ 3: the two Buffer Fusion control batches (prepare-push,
//     pushed) that bracket the vectored image write, plus headroom for one
//     lock RPC when lazy retention misses.
//
// Background TIT recycling is disabled so the deltas below belong to the
// measured commit alone.
func TestCommitFabricOpBudget(t *testing.T) {
	c := NewCluster(Config{
		LockWaitTimeout: 2 * time.Second,
		RecycleInterval: -1, // no background min-view / recycle traffic
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

	put(t, n, sp, "k", "v0")
	// Warm the path: lazy PLocks held, LBP frames resident, Lamport
	// timestamp cache and Buffer Fusion directory populated.
	for i := 0; i < 4; i++ {
		put(t, n, sp, "k", fmt.Sprintf("warm%d", i))
	}

	const commits = 8
	before := c.Stats()
	for i := 0; i < commits; i++ {
		tx, err := n.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update(sp, []byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	after := c.Stats()

	per := func(a, b int64) float64 { return float64(a-b) / commits }
	reads := per(after.Fabric.Reads, before.Fabric.Reads)
	writes := per(after.Fabric.Writes, before.Fabric.Writes)
	atomics := per(after.Fabric.Atomics, before.Fabric.Atomics)
	rpcs := per(after.Fabric.RPCs, before.Fabric.RPCs)
	t.Logf("per-commit fabric ops: reads=%.2f writes=%.2f atomics=%.2f rpcs=%.2f",
		reads, writes, atomics, rpcs)

	if atomics > 1 {
		t.Errorf("atomics/commit = %.2f, budget 1 (TSO fetch-add)", atomics)
	}
	if reads > 1 {
		t.Errorf("reads/commit = %.2f, budget 1", reads)
	}
	if writes > 2 {
		t.Errorf("writes/commit = %.2f, budget 2 (vectored push + TIT headroom)", writes)
	}
	if rpcs > 3 {
		t.Errorf("rpcs/commit = %.2f, budget 3 (prepare-push/pushed batches + lock headroom)", rpcs)
	}
}

// TestSatelliteRoundTripBudget locks down what a satellite process pays the
// socket fabric for a private read-write transaction. On a satellite every
// fabric verb is a blocking round trip to the seed, so per-statement verbs
// dominate the transaction; the lazy read view and the redo tail shipped with
// the sync exist to leave only the commit's own: one TSO fetch-add and one
// storage RPC (append + sync). A change that puts a verb back on Get,
// GetForUpdate or Update — a TSO read per statement, an RPC per redo record —
// trips this test.
//
// Measured: 2.0 round trips per transaction. The budget of 4 leaves room for
// the fenced-flag refresh (one RPC per 100 ms TTL) and a TIT lookup.
func TestSatelliteRoundTripBudget(t *testing.T) {
	_, sats := multiProcess(t, Config{RecycleInterval: -1}, 1)
	sat := sats[0]
	n := sat.Nodes()[0]
	sp, err := sat.CreateSpace("private")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 64
	key := func(i int) []byte { return []byte(fmt.Sprintf("row%03d", i)) }
	for i := 0; i < rows; i++ {
		put(t, n, sp, string(key(i)), "0")
	}

	rw := func(i int) {
		tx, err := n.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			if _, err := tx.Get(sp, key((i*7+j*5)%rows)); err != nil {
				t.Fatal(err)
			}
		}
		k1, k2 := key(i%rows), key((i+rows/2)%rows)
		for _, k := range [][]byte{k1, k2} {
			if _, err := tx.GetForUpdate(sp, k); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range [][]byte{k1, k2} {
			if err := tx.Update(sp, k, []byte(fmt.Sprintf("%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	for i := 0; i < 4; i++ {
		rw(i) // warm: PLocks retained, frames resident, view bound set
	}

	const txs = 16
	frames := func() int64 {
		return sat.Fabric().Stats().Snapshot().Total()
	}
	before := frames()
	for i := 0; i < txs; i++ {
		rw(100 + i)
	}
	per := float64(frames()-before) / txs
	t.Logf("satellite round trips per transaction (10 Get + 2 GetForUpdate + 2 Update + Commit): %.2f", per)
	if per > 4 {
		t.Errorf("%.2f fabric round trips per satellite transaction, budget 4 (TSO fetch-add + fused redo append/sync + headroom)", per)
	}
}
