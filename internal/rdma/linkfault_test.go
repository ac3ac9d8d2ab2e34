package rdma

import (
	"errors"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// shortKeepalive makes half-open detection fast enough for tests. Must run
// before any link is created (tickers capture the interval at start).
func shortKeepalive(t *testing.T, interval time.Duration, misses int) {
	t.Helper()
	oi, om := keepaliveIntervalNs.Load(), keepaliveMisses.Load()
	keepaliveIntervalNs.Store(int64(interval))
	keepaliveMisses.Store(int32(misses))
	t.Cleanup(func() { keepaliveIntervalNs.Store(oi); keepaliveMisses.Store(om) })
}

func TestLinkFaultPartitionAndHeal(t *testing.T) {
	fa, fb, _, _ := twoProcessFabric(t)
	fa.Register(1).RegisterRegion("mem", 64)
	conn := fb.From(2)
	if err := conn.Read(1, "mem", 0, make([]byte, 8)); err != nil {
		t.Fatalf("pre-fault read: %v", err)
	}

	// Partition the satellite away from the seed: live links die, dials are
	// refused, and every verb degrades to the transient ErrUnreachable.
	if err := fb.SetLinkFault("", FaultPartition, time.Minute); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "partition to cut verbs", func() bool {
		return errors.Is(conn.Read(1, "mem", 0, make([]byte, 8)), common.ErrUnreachable)
	})
	if err := conn.Read(1, "mem", 0, make([]byte, 8)); !common.IsTransient(err) {
		t.Fatalf("partitioned verb must stay transient: %v", err)
	}

	// Healing restores service: the redial goes through once the backoff
	// window of the last refused dial expires.
	if err := fb.SetLinkFault("", "heal", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "heal to restore verbs", func() bool {
		return conn.Read(1, "mem", 0, make([]byte, 8)) == nil
	})
}

func TestLinkFaultPartitionKillsAcceptorSide(t *testing.T) {
	fa, fb, peer, _ := twoProcessFabric(t)
	fa.Register(1).RegisterRegion("mem", 64)
	fb.Register(2).RegisterRegion("tit", 64)
	if err := peer.Announce(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reverse route", func() bool { return fa.transportFor(2) != fa.local })

	// A rule installed on the ACCEPTOR (the seed) matching the dialer's
	// advertised name kills the accepted links, cutting reverse verbs; the
	// dialer's reconnects are killed on arrival while the rule stands.
	if err := fa.SetLinkFault("sat", FaultPartition, time.Minute); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reverse verbs cut", func() bool {
		return errors.Is(fa.From(1).Write64(2, "tit", 0, 7), common.ErrUnreachable)
	})
	if err := fa.SetLinkFault("sat", "heal", 0); err != nil {
		t.Fatal(err)
	}
	// The acceptor never dials: reverse routes come back when the dialer's
	// own traffic re-establishes the uplink, so keep the satellite talking.
	waitFor(t, "reverse verbs healed", func() bool {
		_ = fb.From(2).Read(1, "mem", 0, make([]byte, 8))
		return fa.From(1).Write64(2, "tit", 0, 7) == nil
	})
}

func TestLinkFaultBlackholeDetectedByKeepalive(t *testing.T) {
	shortKeepalive(t, 20*time.Millisecond, 2)
	fa, fb, _, _ := twoProcessFabric(t)
	fa.Register(1).RegisterRegion("mem", 64)
	conn := fb.From(2)
	if err := conn.Read(1, "mem", 0, make([]byte, 8)); err != nil {
		t.Fatalf("pre-fault read: %v", err)
	}

	// A black hole swallows frames without closing the TCP connection: the
	// in-flight verb must NOT hang forever — idle detection tears the link
	// down and wakes the waiter with a transient error.
	if err := fb.SetLinkFault("", FaultBlackhole, time.Minute); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- conn.Read(1, "mem", 0, make([]byte, 8)) }()
	select {
	case err := <-done:
		if !common.IsTransient(err) {
			t.Fatalf("black-holed verb must fail transient, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("black-holed verb hung: keepalive never fired")
	}

	fb.Faults().Clear("")
	waitFor(t, "heal after blackhole", func() bool {
		return conn.Read(1, "mem", 0, make([]byte, 8)) == nil
	})
}

func TestLinkFaultValidation(t *testing.T) {
	f := NewFabric(Latency{})
	for _, mode := range []string{"melt", "flap"} {
		if err := f.SetLinkFault("x", mode, time.Second); !errors.Is(err, common.ErrCorrupt) {
			t.Fatalf("mode %q: err = %v, want ErrCorrupt", mode, err)
		}
	}
	if err := f.SetLinkFault("x", FaultPartition, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
	if err := f.SetLinkFault("x", FaultPartition, time.Minute); err != nil {
		t.Fatal(err)
	}
	snap := f.Faults().Snapshot()
	if len(snap) != 1 || snap[0].Mode != FaultPartition || snap[0].Peer != "x" {
		t.Fatalf("snapshot %+v", snap)
	}
	if n := f.Faults().Clear("x"); n != 1 {
		t.Fatalf("cleared %d rules", n)
	}
	if len(f.Faults().Snapshot()) != 0 {
		t.Fatal("rules survived clear")
	}
}
