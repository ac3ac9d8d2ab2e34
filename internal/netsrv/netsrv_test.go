package netsrv_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"polardbmp/internal/chaos"
	"polardbmp/internal/common"
	"polardbmp/internal/core"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/wire"
)

// sessionServer stands up a one-node cluster behind a session-protocol
// listener: the in-test mpserver.
func sessionServer(t *testing.T, cfg core.Config) (*core.Cluster, *wire.Server, string) {
	t.Helper()
	c := core.NewCluster(cfg)
	n, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	nc := &wire.NetCounters{}
	c.SetNetStats(nc.Snapshot)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.ServeSessions(lis, "testsrv", netsrv.New(c, n), nc)
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv, lis.Addr().String()
}

func TestSessionEndToEnd(t *testing.T) {
	_, _, addr := sessionServer(t, core.Config{RecycleInterval: -1})
	cl, err := wire.DialSession(addr, wire.SessionConfig{Name: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.ServerName(); got != "testsrv" {
		t.Fatalf("server name %q", got)
	}

	space, err := cl.CreateSpace("t")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := cl.CreateSpace("t"); err != nil || again != space {
		t.Fatalf("create twice: %d %v", again, err)
	}
	if resolved, err := cl.SpaceID("t"); err != nil || resolved != space {
		t.Fatalf("space id: %d %v", resolved, err)
	}
	if _, err := cl.SpaceID("nope"); !errors.Is(err, common.ErrNotFound) {
		t.Fatalf("missing space: %v", err)
	}

	tx, err := cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(space, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(space, []byte("a"), []byte("dup")); !errors.Is(err, common.ErrKeyExists) {
		t.Fatalf("dup insert: %v", err)
	}
	if err := tx.Upsert(space, []byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, err := tx.Get(space, []byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("own read: %q %v", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Finished transactions are gone server-side.
	if _, err := tx.Get(space, []byte("a")); !errors.Is(err, common.ErrTxDone) {
		t.Fatalf("use after commit: %v", err)
	}

	tx2, _ := cl.Begin(1, 0) // snapshot isolation across the wire
	if v, err := tx2.GetForUpdate(space, []byte("b")); err != nil || string(v) != "2" {
		t.Fatalf("locked read: %q %v", v, err)
	}
	if err := tx2.Update(space, []byte("b"), []byte("2x")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Delete(space, []byte("a")); err != nil {
		t.Fatal(err)
	}
	kvs, err := tx2.Scan(space, nil, nil, 0)
	if err != nil || len(kvs) != 1 || string(kvs[0].Key) != "b" || string(kvs[0].Value) != "2x" {
		t.Fatalf("scan: %v %v", kvs, err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx3, _ := cl.Begin(0, 0)
	if v, err := tx3.Get(space, []byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("rollback did not restore: %q %v", v, err)
	}
	_ = tx3.Rollback()

	if _, err := tx3.Get(space, []byte("missing-key-tx")); !errors.Is(err, common.ErrTxDone) {
		t.Fatalf("rolled back tx must be done: %v", err)
	}

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	raw, err := cl.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var stats core.ClusterStats
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	if stats.Commits == 0 {
		t.Fatal("stats lost the commit counter")
	}
	if stats.Net == nil || stats.Net.FramesIn == 0 || stats.Net.ConnsAccepted != 1 {
		t.Fatalf("net stats section: %+v", stats.Net)
	}
}

func TestSessionDeadlinePropagation(t *testing.T) {
	_, _, addr := sessionServer(t, core.Config{RecycleInterval: -1})
	cl, err := wire.DialSession(addr, wire.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	space, err := cl.CreateSpace("dl")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := cl.Begin(0, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	err = tx.Upsert(space, []byte("k"), []byte("v"))
	if err == nil {
		err = tx.Commit()
	}
	if !errors.Is(err, common.ErrDeadlineExceeded) {
		t.Fatalf("expired budget must map to ErrDeadlineExceeded over the wire, got %v", err)
	}
}

func TestSessionDisconnectRollsBackOpenTx(t *testing.T) {
	_, _, addr := sessionServer(t, core.Config{LockWaitTimeout: 500 * time.Millisecond, RecycleInterval: -1})
	setup, err := wire.DialSession(addr, wire.SessionConfig{Name: "setup"})
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	space, err := setup.CreateSpace("locks")
	if err != nil {
		t.Fatal(err)
	}
	stx, _ := setup.Begin(0, 0)
	if err := stx.Insert(space, []byte("row"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := stx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A client takes a row lock, then its process "dies" (connection drop
	// without rollback). The server must roll the orphan back so the lock
	// frees for everyone else.
	dying, err := wire.DialSession(addr, wire.SessionConfig{Name: "dying"})
	if err != nil {
		t.Fatal(err)
	}
	dtx, _ := dying.Begin(0, 0)
	if _, err := dtx.GetForUpdate(space, []byte("row")); err != nil {
		t.Fatal(err)
	}
	dying.Close()

	tx, _ := setup.Begin(0, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = tx.GetForUpdate(space, []byte("row"))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("row lock never released after client death: %v", err)
		}
		_ = tx.Rollback()
		time.Sleep(10 * time.Millisecond)
		tx, _ = setup.Begin(0, 0)
	}
	_ = tx.Rollback()
}

// TestSessionGoroutineLeakUnderChaos drives pipelined sessions while the
// fabric drops and duplicates traffic, kills half the client connections
// mid-flight, and then asserts the server side released every goroutine —
// connection handlers, per-request workers, and the engine workers behind
// them.
func TestSessionGoroutineLeakUnderChaos(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		c, srv, addr := sessionServer(t, core.Config{LockWaitTimeout: 300 * time.Millisecond})
		eng := chaos.MustNew(11, chaos.LossyPlan(0.02))
		eng.Install(c.Fabric(), nil)
		defer chaos.Uninstall(c.Fabric(), nil)

		setup, err := wire.DialSession(addr, wire.SessionConfig{Name: "setup"})
		if err != nil {
			t.Fatal(err)
		}
		space, err := setup.CreateSpace("leak")
		if err != nil {
			t.Fatal(err)
		}
		setup.Close()

		const clients = 6
		var wg sync.WaitGroup
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				cl, err := wire.DialSession(addr, wire.SessionConfig{Name: fmt.Sprintf("c%d", ci)})
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				defer cl.Close()
				for i := 0; i < 25; i++ {
					tx, err := cl.Begin(0, 0)
					if err != nil {
						continue
					}
					key := []byte(fmt.Sprintf("c%d-%d", ci, i))
					if err := tx.Upsert(space, key, key); err != nil {
						_ = tx.Rollback()
						continue
					}
					if ci%2 == 0 && i == 12 {
						// Die abruptly with the transaction open.
						cl.Close()
						return
					}
					_ = tx.Commit()
				}
			}(ci)
		}
		wg.Wait()
		srv.Close()
		c.Close()
	}()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d live, %d at start\n%s", g, base, buf[:n])
	}
}

// TestSessionHandshake: there is one session protocol version. A hello
// carrying it is accepted and the session has the whole surface, admin ops
// included; a hello carrying any other version is refused at connect time
// with the typed ErrCorrupt, not mid-workload.
func TestSessionHandshake(t *testing.T) {
	c, _, addr := sessionServer(t, core.Config{RecycleInterval: -1})
	if _, err := c.AddNode(); err != nil { // a second node so drain keeps quorum of one
		t.Fatal(err)
	}

	for _, version := range []uint16{0, 1, 2, 3, 4} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		hello := wire.Frame{Kind: wire.KindControl, Op: wire.SessHello,
			Payload: wire.AppendHello(nil, version, "raw")}
		if _, err := wire.WriteFrame(conn, nil, hello); err != nil {
			t.Fatal(err)
		}
		f, _, err := wire.ReadFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		err = wire.DecodeStatus(wire.NewReader(f.Payload))
		if version == wire.SessionProtoVersion {
			if err != nil {
				t.Fatalf("hello v%d refused: %v", version, err)
			}
		} else if !errors.Is(err, common.ErrCorrupt) {
			t.Fatalf("hello v%d: %v, want ErrCorrupt", version, err)
		}
	}

	// The client: topology, join info, and drain all work.
	cl, err := wire.DialSession(addr, wire.SessionConfig{Name: "admin"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	raw, err := cl.TopologyJSON()
	if err != nil {
		t.Fatal(err)
	}
	var top core.Topology
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if len(top.Nodes) != 2 {
		t.Fatalf("topology nodes = %d, want 2", len(top.Nodes))
	}
	ji, err := cl.JoinInfoJSON()
	if err != nil {
		t.Fatal(err)
	}
	var info netsrv.JoinInfo
	if err := json.Unmarshal(ji, &info); err != nil {
		t.Fatal(err)
	}
	if info.Node != 1 || !info.Seed {
		t.Fatalf("join info = %+v, want node 1 on a seed", info)
	}

	// Drain over the wire: node 2 leaves gracefully and a fresh topology
	// snapshot reflects it under an advanced epoch.
	if err := cl.Drain(2); err != nil {
		t.Fatalf("drain over the wire: %v", err)
	}
	raw2, err := cl.TopologyJSON()
	if err != nil {
		t.Fatal(err)
	}
	var top2 core.Topology
	if err := json.Unmarshal(raw2, &top2); err != nil {
		t.Fatal(err)
	}
	if top2.Epoch <= top.Epoch {
		t.Fatalf("epoch %d did not advance past %d over a drain", top2.Epoch, top.Epoch)
	}
	var state core.NodeState
	for _, ni := range top2.Nodes {
		if ni.ID == 2 {
			state = ni.State
		}
	}
	if state != core.NodeDrained {
		t.Fatalf("node 2 state over the wire = %q, want drained", state)
	}
	if err := cl.Drain(99); !errors.Is(err, common.ErrUnknownNode) {
		t.Fatalf("drain unknown node: %v, want ErrUnknownNode (typed across the wire)", err)
	}
}

// TestSessionDrainingBeginIsTyped: a Begin against a draining/drained node
// crosses the wire as ErrDraining, so a gateway can reroute instead of
// retrying the same backend.
func TestSessionDrainingBeginIsTyped(t *testing.T) {
	c, _, addr := sessionServer(t, core.Config{RecycleInterval: -1})
	cl, err := wire.DialSession(addr, wire.SessionConfig{Name: "drainee"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	// Drain the node this server fronts (node 1).
	if err := cl.Drain(1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Begin(0, 0); !errors.Is(err, common.ErrDraining) {
		t.Fatalf("Begin on drained backend: %v, want ErrDraining", err)
	}
}
