package rdma

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// twoProcessFabric wires two in-test fabrics through a real TCP socket the
// way two mpserver processes are wired: fa listens, fb dials and uses fa as
// its default route, and fb's hosted node is reverse-routable from fa.
func twoProcessFabric(t *testing.T) (fa, fb *Fabric, peer *Peer, srv *FabricServer) {
	t.Helper()
	fa = NewFabric(Latency{})
	fb = NewFabric(Latency{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = ServeFabric(fa, lis, "seed", &wire.NetCounters{})
	peer, err = DialPeer(fb, lis.Addr().String(), PeerConfig{Name: "sat", Counters: &wire.NetCounters{}})
	if err != nil {
		t.Fatal(err)
	}
	fb.AttachDefault(peer)
	t.Cleanup(func() {
		_ = peer.Close()
		srv.Close()
	})
	return fa, fb, peer, srv
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSocketTransportVerbParity(t *testing.T) {
	fa, fb, _, _ := twoProcessFabric(t)
	epA := fa.Register(1)
	epA.RegisterRegion("mem", 4096)
	epA.Serve("echo", func(req []byte) ([]byte, error) {
		return append([]byte("re:"), req...), nil
	})

	conn := fb.From(2)

	// One-sided write then read round-trips through the socket.
	if err := conn.Write(1, "mem", 100, []byte("hello fabric")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, 12)
	if err := conn.Read(1, "mem", 100, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "hello fabric" {
		t.Fatalf("read back %q", got)
	}

	// Atomics return the previous value and mutate remotely.
	if err := conn.Write64(1, "mem", 0, 41); err != nil {
		t.Fatal(err)
	}
	if prev, err := conn.FetchAdd64(1, "mem", 0, 1); err != nil || prev != 41 {
		t.Fatalf("fetchadd: %v prev=%d", err, prev)
	}
	if prev, err := conn.CAS64(1, "mem", 0, 42, 7); err != nil || prev != 42 {
		t.Fatalf("cas: %v prev=%d", err, prev)
	}
	if v, err := conn.Read64(1, "mem", 0); err != nil || v != 7 {
		t.Fatalf("read64: %v v=%d", err, v)
	}

	// Vectored verbs land every segment.
	segs := []Seg{{Off: 8, Buf: []byte("aaaa")}, {Off: 200, Buf: []byte("bb")}}
	if err := conn.WriteV(1, "mem", segs); err != nil {
		t.Fatalf("writev: %v", err)
	}
	rsegs := []Seg{{Off: 8, Buf: make([]byte, 4)}, {Off: 200, Buf: make([]byte, 2)}}
	if err := conn.ReadV(1, "mem", rsegs); err != nil {
		t.Fatalf("readv: %v", err)
	}
	if !bytes.Equal(rsegs[0].Buf, []byte("aaaa")) || !bytes.Equal(rsegs[1].Buf, []byte("bb")) {
		t.Fatalf("readv got %q %q", rsegs[0].Buf, rsegs[1].Buf)
	}

	// RPC and batched RPC.
	resp, err := conn.Call(1, "echo", []byte("ping"))
	if err != nil || string(resp) != "re:ping" {
		t.Fatalf("call: %v %q", err, resp)
	}
	resps, err := conn.CallBatch(1, "echo", [][]byte{[]byte("a"), []byte("b")})
	if err != nil || len(resps) != 2 || string(resps[0]) != "re:a" || string(resps[1]) != "re:b" {
		t.Fatalf("callbatch: %v %q", err, resps)
	}
}

func TestSocketTransportErrorMapping(t *testing.T) {
	fa, fb, _, srv := twoProcessFabric(t)
	epA := fa.Register(1)
	epA.RegisterRegion("mem", 64)
	epA.Serve("boom", func(req []byte) ([]byte, error) {
		return nil, fmt.Errorf("shed: %w", common.ErrOverloaded)
	})
	conn := fb.From(2)

	if err := conn.Read(1, "nope", 0, make([]byte, 8)); !errors.Is(err, common.ErrNoRegion) {
		t.Fatalf("want ErrNoRegion, got %v", err)
	}
	if err := conn.Read(1, "mem", 60, make([]byte, 8)); !errors.Is(err, common.ErrOutOfBounds) {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
	if err := conn.Read(9, "mem", 0, make([]byte, 8)); !errors.Is(err, common.ErrNodeDown) {
		t.Fatalf("unknown node: want ErrNodeDown, got %v", err)
	}
	if _, err := conn.Call(1, "boom", nil); !errors.Is(err, common.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded across the wire, got %v", err)
	}
	// Typed errors must stay retry-classified exactly as in-process.
	if _, err := conn.Call(1, "boom", nil); !common.IsTransient(err) {
		t.Fatalf("ErrOverloaded lost its transient classification: %v", err)
	}

	srv.Close()
	waitFor(t, "link teardown", func() bool {
		err := conn.Read(1, "mem", 0, make([]byte, 8))
		return errors.Is(err, common.ErrUnreachable)
	})
	if err := conn.Read(1, "mem", 0, make([]byte, 8)); !common.IsTransient(err) {
		t.Fatal("dead peer must be a transient failure")
	}
}

func TestSocketTransportReverseRouting(t *testing.T) {
	fa, fb, peer, _ := twoProcessFabric(t)
	fa.Register(1).RegisterRegion("mem", 64)
	// The satellite registers its node AFTER dialing and announces it; the
	// seed can then issue verbs to it over the accepted connections.
	epB := fb.Register(2)
	epB.RegisterRegion("tit", 128)
	epB.Serve("revoke", func(req []byte) ([]byte, error) { return []byte("ok"), nil })
	if err := peer.Announce(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reverse route", func() bool {
		return fa.transportFor(2) != fa.local
	})
	if err := fa.From(1).Write64(2, "tit", 8, 77); err != nil {
		t.Fatalf("seed->satellite write: %v", err)
	}
	if v, err := fb.From(2).Read64(2, "tit", 8); err != nil || v != 77 {
		t.Fatalf("satellite local read: %v %d", err, v)
	}
	resp, err := fa.From(1).Call(2, "revoke", []byte("x"))
	if err != nil || string(resp) != "ok" {
		t.Fatalf("seed->satellite rpc: %v %q", err, resp)
	}
}

func TestSocketTransportPipelining(t *testing.T) {
	fa, fb, _, _ := twoProcessFabric(t)
	epA := fa.Register(1)
	epA.RegisterRegion("mem", 8*64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn := fb.From(common.NodeID(2))
			for i := 0; i < 50; i++ {
				off := g * 64
				if err := conn.Write64(1, "mem", off, uint64(g*1000+i)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				v, err := conn.Read64(1, "mem", off)
				if err != nil || v != uint64(g*1000+i) {
					t.Errorf("read: %v v=%d", err, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSocketTransportStats(t *testing.T) {
	fa, fb, _, _ := twoProcessFabric(t)
	fa.Register(1).RegisterRegion("mem", 64)
	conn := fb.From(2)
	if err := conn.Write(1, "mem", 0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Read(1, "mem", 0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	// Issuing fabric accounts globally and per-source, as in-process.
	if s := fb.Stats().Snapshot(); s.Reads != 1 || s.Writes != 1 || s.BytesRead != 16 || s.BytesWrite != 32 {
		t.Fatalf("issuer fabric stats %+v", s)
	}
	if s := fb.SrcStats(2).Snapshot(); s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("per-source stats %+v", s)
	}
	// The serving fabric accounts the executed verbs too (its own view).
	if s := fa.Stats().Snapshot(); s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("server fabric stats %+v", s)
	}
}

func TestSocketTransportInjectionAtIssuer(t *testing.T) {
	fa, fb, _, _ := twoProcessFabric(t)
	fa.Register(1).RegisterRegion("mem", 64)
	var drops int
	var mu sync.Mutex
	fb.SetInjector(func(op common.FaultOp) common.FaultDecision {
		mu.Lock()
		defer mu.Unlock()
		if op.Class == common.FaultRead && drops == 0 {
			drops++
			return common.FaultDecision{Err: common.ErrInjected}
		}
		return common.FaultDecision{}
	})
	conn := fb.From(2).WithRetry(common.NoRetryPolicy())
	err := conn.Read(1, "mem", 0, make([]byte, 8))
	if !errors.Is(err, common.ErrInjected) {
		t.Fatalf("issuer-side injection must fire before the wire: %v", err)
	}
	if err := conn.Read(1, "mem", 0, make([]byte, 8)); err != nil {
		t.Fatalf("after injection: %v", err)
	}
}

// A satellite whose link died redials, and the seed's acceptor makes the new
// link the satellite's one link: a seed→satellite verb is served on it, and
// the link it replaced is dead.
func TestSocketTransportReverseVerbAfterRedial(t *testing.T) {
	fa, fb, peer, srv := twoProcessFabric(t)
	fa.Register(1).RegisterRegion("mem", 64)
	fb.Register(2).RegisterRegion("tit", 64)
	if err := peer.Announce(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reverse route", func() bool { return fa.transportFor(2) != fa.local })
	if err := fa.From(1).Write64(2, "tit", 0, 7); err != nil {
		t.Fatalf("seed->satellite write: %v", err)
	}
	srv.mu.Lock()
	rp := srv.peers[peer.id]
	srv.mu.Unlock()
	accepted, err := rp.pick()
	if err != nil {
		t.Fatal(err)
	}

	dialed := peer.link.Last()
	dialed.Fail(errors.New("test: link cut"))
	if err := fb.From(2).Read(1, "mem", 0, make([]byte, 8)); err != nil {
		t.Fatalf("satellite verb after the cut: %v", err)
	}
	if peer.link.Last() == dialed {
		t.Fatal("the satellite's verb did not redial")
	}
	waitFor(t, "the acceptor to take the new link", func() bool {
		l, err := rp.pick()
		return err == nil && l != accepted
	})
	if accepted.Alive() {
		t.Fatal("the replaced accepted link is still alive")
	}
	if err := fa.From(1).Write64(2, "tit", 0, 9); err != nil {
		t.Fatalf("seed->satellite write after the redial: %v", err)
	}
	if v, err := fb.From(2).Read64(2, "tit", 0); err != nil || v != 9 {
		t.Fatalf("satellite local read: %v %d", err, v)
	}
}

// Six dialers in turn announce node 7, each hosting it with its own number
// in word 0, and the first five close. Node 7 routes to the last dialer —
// each dialer attached before its ack, so after the ones before it — and
// the acceptor forgets the five it no longer routes to.
func TestAcceptorRoutesNodeToNewestDialer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fa := NewFabric(Latency{})
	srv := ServeFabric(fa, lis, "seed", &wire.NetCounters{})
	defer srv.Close()
	var peers []*Peer
	for i := 0; i < 6; i++ {
		fb := NewFabric(Latency{})
		_ = fb.Register(7).RegisterRegion("mem", 64).LocalWrite64(0, uint64(i))
		p, err := DialPeer(fb, lis.Addr().String(), PeerConfig{Name: fmt.Sprint("sat", i), Hosted: []common.NodeID{7}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers = append(peers, p)
	}
	for _, p := range peers[:5] {
		_ = p.Close()
	}
	waitFor(t, "the acceptor to forget the closed dialers", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.peers) == 1
	})
	if v, err := fa.Read64(7, "mem", 0); err != nil || v != 5 {
		t.Fatalf("node 7 word 0 = %d, %v; want the newest dialer's 5", v, err)
	}
}

// A dialer whose node nobody else announced keeps the node's route after
// its link died: verbs to the node fail as unreachable, a transient fault a
// redial heals.
func TestAcceptorKeepsRouteOfDeadDialer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fa := NewFabric(Latency{})
	srv := ServeFabric(fa, lis, "seed", &wire.NetCounters{})
	defer srv.Close()
	fb := NewFabric(Latency{})
	fb.Register(7).RegisterRegion("mem", 64)
	p, err := DialPeer(fb, lis.Addr().String(), PeerConfig{Name: "sat", Hosted: []common.NodeID{7}})
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	rp := srv.peers[p.id]
	srv.mu.Unlock()
	_ = p.Close()
	waitFor(t, "the acceptor to drop the dead link", func() bool {
		rp.mu.Lock()
		defer rp.mu.Unlock()
		return rp.link == nil
	})
	srv.mu.Lock()
	kept := srv.peers[p.id] == rp
	srv.mu.Unlock()
	if !kept || fa.transportFor(7) != Transport(rp) {
		t.Fatal("the dead dialer lost node 7's route")
	}
	if _, err := fa.Read64(7, "mem", 0); !errors.Is(err, common.ErrUnreachable) {
		t.Fatalf("verb to the dead dialer's node: %v, want ErrUnreachable", err)
	}
}
