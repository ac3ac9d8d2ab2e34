package core

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
	"polardbmp/internal/wire"
)

// multiProcess stands up a seed cluster serving its fabric on a real TCP
// socket plus nSat satellite processes joined through it — the in-test
// equivalent of one mpserver -fabric seed and nSat mpserver -join daemons.
func multiProcess(t *testing.T, cfg Config, nSat int) (seed *Cluster, sats []*Cluster) {
	t.Helper()
	seed = NewCluster(cfg)
	if _, err := seed.AddNode(); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rdma.ServeFabric(seed.Fabric(), lis, "seed", &wire.NetCounters{})
	for i := 0; i < nSat; i++ {
		sat, _, err := JoinRemote(cfg, lis.Addr().String(), &wire.NetCounters{})
		if err != nil {
			t.Fatalf("join satellite %d: %v", i, err)
		}
		sats = append(sats, sat)
	}
	t.Cleanup(func() {
		for _, s := range sats {
			s.Close()
		}
		seed.Close()
		srv.Close()
	})
	return seed, sats
}

func TestJoinRemoteCrossProcessTransactions(t *testing.T) {
	seed, sats := multiProcess(t, Config{RecycleInterval: -1}, 2)
	sat1, sat2 := sats[0], sats[1]

	// Tablespace creation from a satellite serializes at the seed, and the
	// name resolves identically in every process.
	space, err := sat1.CreateSpace("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if sp2, err := sat2.CreateSpace("accounts"); err != nil || sp2 != space {
		t.Fatalf("satellite 2 sees space %d (%v), want %d", sp2, err, space)
	}
	if sp0, err := seed.SpaceID("accounts"); err != nil || sp0 != space {
		t.Fatalf("seed sees space %d (%v), want %d", sp0, err, space)
	}

	// Every process writes through its own node; every process reads every
	// write. This exercises the whole fusion stack over the socket: TSO and
	// TIT traffic, PLock negotiation between processes, DBP frame transfer,
	// remote WAL append/sync.
	writers := []struct {
		name string
		c    *Cluster
	}{{"seed", seed}, {"sat1", sat1}, {"sat2", sat2}}
	for i, w := range writers {
		n := w.c.Nodes()[0]
		tx, err := n.Begin()
		if err != nil {
			t.Fatalf("%s begin: %v", w.name, err)
		}
		if err := tx.Insert(space, []byte(fmt.Sprintf("k%d", i)), []byte(w.name)); err != nil {
			t.Fatalf("%s insert: %v", w.name, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("%s commit: %v", w.name, err)
		}
	}
	for _, rproc := range writers {
		n := rproc.c.Nodes()[0]
		tx, err := n.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range writers {
			v, err := tx.Get(space, []byte(fmt.Sprintf("k%d", i)))
			if err != nil || string(v) != w.name {
				t.Fatalf("%s reading k%d: %q %v (want %q)", rproc.name, i, v, err, w.name)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Write conflicts across processes resolve through Lock Fusion, not by
	// both committing.
	tx1, _ := sat1.Nodes()[0].Begin()
	if err := tx1.Upsert(space, []byte("hot"), []byte("from-sat1")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := sat2.Nodes()[0].Begin()
	v, err := tx2.GetForUpdate(space, []byte("hot"))
	if err != nil || string(v) != "from-sat1" {
		t.Fatalf("sat2 locked read: %q %v", v, err)
	}
	if err := tx2.Update(space, []byte("hot"), []byte("from-sat2")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	txv, _ := seed.Nodes()[0].Begin()
	if v, err := txv.Get(space, []byte("hot")); err != nil || string(v) != "from-sat2" {
		t.Fatalf("seed sees %q %v", v, err)
	}
	_ = txv.Rollback()

	// The satellites' redo went through the shared store: the seed's view of
	// their streams is non-empty and durable.
	for _, sat := range sats {
		id := sat.Nodes()[0].ID()
		if end := seed.Store().LogEndLSN(id); end == 0 {
			t.Fatalf("satellite node %d has an empty redo stream at the seed", id)
		}
		if d := seed.Store().LogDurableLSN(id); d == 0 {
			t.Fatalf("satellite node %d never synced", id)
		}
	}
}

func TestJoinRemoteSeedOnlyOperations(t *testing.T) {
	_, sats := multiProcess(t, Config{RecycleInterval: -1}, 1)
	sat := sats[0]
	id := sat.Nodes()[0].ID()
	if err := sat.CrashNode(id); !errors.Is(err, ErrNotHosted) {
		t.Fatalf("CrashNode on satellite: %v", err)
	}
	if _, err := sat.RestartNode(id); !errors.Is(err, ErrNotHosted) {
		t.Fatalf("RestartNode on satellite: %v", err)
	}
	if err := sat.Checkpoint(); !errors.Is(err, ErrNotHosted) {
		t.Fatalf("Checkpoint on satellite: %v", err)
	}
	// Stats must not panic without the PMFS sections, and the satellite's
	// node must be visible in its own snapshot.
	s := sat.Stats()
	if len(s.Nodes) != 1 || s.Nodes[0].Node != int(id) {
		t.Fatalf("satellite stats nodes: %+v", s.Nodes)
	}
}

func TestJoinRemoteNodeIDsAreClusterUnique(t *testing.T) {
	seed, sats := multiProcess(t, Config{RecycleInterval: -1}, 2)
	seen := map[common.NodeID]bool{seed.Nodes()[0].ID(): true}
	for _, sat := range sats {
		id := sat.Nodes()[0].ID()
		if seen[id] {
			t.Fatalf("node id %d allocated twice", id)
		}
		seen[id] = true
	}
	// A node added at the seed after the joins continues the same sequence.
	n, err := seed.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if seen[n.ID()] {
		t.Fatalf("seed AddNode reused id %d", n.ID())
	}
}

func TestJoinRemoteSurvivesSeedSideCommitLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seed, sats := multiProcess(t, Config{}, 1)
	sat := sats[0]
	space, err := seed.CreateSpace("load")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	work := func(c *Cluster, who string) {
		n := c.Nodes()[0]
		for i := 0; i < 40; i++ {
			tx, err := n.Begin()
			if err != nil {
				done <- fmt.Errorf("%s begin: %w", who, err)
				return
			}
			key := []byte(fmt.Sprintf("%s/%03d", who, i))
			if err := tx.Upsert(space, key, []byte(time.Now().Format(time.RFC3339Nano))); err != nil {
				_ = tx.Rollback()
				done <- fmt.Errorf("%s upsert: %w", who, err)
				return
			}
			if err := tx.Commit(); err != nil {
				done <- fmt.Errorf("%s commit: %w", who, err)
				return
			}
		}
		done <- nil
	}
	go work(seed, "seed")
	go work(sat, "sat")
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Both processes see all 80 rows.
	for _, c := range []*Cluster{seed, sat} {
		tx, _ := c.Nodes()[0].Begin()
		kvs, err := tx.Scan(space, nil, nil, 0)
		if err != nil || len(kvs) != 80 {
			t.Fatalf("scan: %v, %d rows", err, len(kvs))
		}
		_ = tx.Commit()
	}
}

// TestRemoteElasticity drains a satellite-hosted node through the seed's
// admin service, checks both processes' topology views agree, and rejoins —
// reusing the drained slot across the process boundary.
func TestRemoteElasticity(t *testing.T) {
	seed, sats := multiProcess(t, Config{RecycleInterval: -1}, 1)
	sat := sats[0]
	satID := sat.Nodes()[0].ID()

	space, err := sat.CreateSpace("t")
	if err != nil {
		t.Fatal(err)
	}
	satPut := func(n *Node, key string) {
		t.Helper()
		tx, err := n.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Upsert(space, []byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	satPut(sat.Nodes()[0], "from-sat")

	// Both processes see the same membership rows; Hosted is per-process.
	satTop, err := sat.Topology()
	if err != nil {
		t.Fatal(err)
	}
	seedTop, err := seed.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if satTop.Epoch != seedTop.Epoch || len(satTop.Nodes) != len(seedTop.Nodes) {
		t.Fatalf("topology mismatch: sat %+v vs seed %+v", satTop, seedTop)
	}
	for _, ni := range satTop.Nodes {
		wantHosted := common.NodeID(ni.ID) == satID
		if ni.Hosted != wantHosted {
			t.Fatalf("sat view of node %d: hosted=%v, want %v", ni.ID, ni.Hosted, wantHosted)
		}
	}

	// A satellite can only drain its own nodes.
	if err := sat.DrainNode(seed.Nodes()[0].ID()); !errors.Is(err, ErrNotHosted) {
		t.Fatalf("satellite draining seed node: %v, want ErrNotHosted", err)
	}
	// Drain the satellite's node from inside the satellite: membership
	// transitions, min-view removal, and server-side cleanup all ride RPCs.
	if err := sat.DrainNode(satID); err != nil {
		t.Fatalf("satellite drain: %v", err)
	}
	seedTop2, err := seed.Topology()
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range seedTop2.Nodes {
		if common.NodeID(ni.ID) == satID && ni.State != NodeDrained {
			t.Fatalf("seed sees drained node as %s", ni.State)
		}
	}
	if v, err := get(t, seed.Nodes()[0], space, "from-sat"); err != nil || v != "v" {
		t.Fatalf("seed read after satellite drain: %q, %v", v, err)
	}

	// Rejoin from the satellite process reuses the drained slot.
	n2, err := sat.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if n2.ID() != satID {
		t.Fatalf("rejoin allocated node %d, want reused slot %d", n2.ID(), satID)
	}
	satPut(n2, "after-rejoin")
	if v, err := get(t, seed.Nodes()[0], space, "after-rejoin"); err != nil || v != "v" {
		t.Fatalf("seed read after rejoin: %q, %v", v, err)
	}
}

// A satellite's redo sits in its storage client's tail until the commit's
// sync. If the stream is fenced in between (a survivor began taking the node
// over), the sync reports the tail refused, the writer closes, and Commit
// fails on its durability gate: the un-acked write is published nowhere and
// the commit acked before the fence is still there.
func TestJoinRemoteCommitFencedWithBufferedTail(t *testing.T) {
	seed, sats := multiProcess(t, Config{RecycleInterval: -1}, 1)
	n := sats[0].Nodes()[0]
	sp, err := sats[0].CreateSpace("t")
	if err != nil {
		t.Fatal(err)
	}
	put(t, n, sp, "k", "acked")
	durable := seed.store.LogDurableLSN(n.ID())

	tx, err := n.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(sp, []byte("k"), []byte("unacked")); err != nil {
		t.Fatal(err)
	}
	seed.store.FenceLog(n.ID())
	err = tx.Commit()
	if !errors.Is(err, common.ErrNodeDown) && !errors.Is(err, common.ErrStaleEpoch) {
		t.Fatalf("commit over a fenced stream: %v, want ErrNodeDown or ErrStaleEpoch", err)
	}
	if d := seed.store.LogDurableLSN(n.ID()); d != durable {
		t.Fatalf("fenced stream's durable LSN moved %d -> %d", durable, d)
	}
	if v, err := get(t, seed.Nodes()[0], sp, "k"); err != nil || v != "acked" {
		t.Fatalf("seed reads k = %q (%v), want the commit acked before the fence", v, err)
	}
	// The writer is closed for good: later commits fail the same way.
	if tx, err = n.Begin(); err == nil {
		if err = tx.Update(sp, []byte("k"), []byte("zombie")); err == nil {
			err = tx.Commit()
		} else {
			_ = tx.Rollback()
		}
	}
	if err == nil {
		t.Fatal("a commit succeeded on a fenced stream")
	}
}
