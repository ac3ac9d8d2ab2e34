package gateway

import (
	"errors"
	"testing"
)

// A backend that failed repeatedly must not stay shunned forever: clean
// probes alone (zero sessions routed to it) decay the failure EWMA back
// under the shun threshold.
func TestIdleProbeDecayUnshuns(t *testing.T) {
	b := &backend{addr: "x"}
	for i := 0; i < 10; i++ {
		b.mu.Lock()
		b.failLocked(errors.New("connection refused"))
		b.mu.Unlock()
	}
	if b.failEWMA < failEWMAShun {
		t.Fatalf("failEWMA %.3f after 10 failures, want >= shun threshold %.2f", b.failEWMA, failEWMAShun)
	}
	// The backend recovers; each probe succeeds and decays the average.
	probes := 0
	for b.failEWMA >= failEWMAShun {
		b.mu.Lock()
		b.healthy = true
		b.failEWMA *= failEWMADecay // what probeLoop does on a clean probe
		b.mu.Unlock()
		probes++
		if probes > 100 {
			t.Fatalf("failEWMA never decayed below %.2f (stuck at %.3f)", failEWMAShun, b.failEWMA)
		}
	}
	if probes > 10 {
		t.Fatalf("took %d clean probes to unshun, want <= 10", probes)
	}
}

// pick must prefer a clean backend over a flaky-but-healthy one, and a
// flaky one over a dead one; once the flaky backend's EWMA decays it
// competes on sessions again.
func TestPickRespectsFailureTiers(t *testing.T) {
	clean := &backend{addr: "clean", healthy: true}
	flaky := &backend{addr: "flaky", healthy: true, failEWMA: failEWMAShun + 0.1}
	dead := &backend{addr: "dead"}
	gw := &Gateway{backends: []*backend{dead, flaky, clean}}

	if got := gw.pick(nil); got != clean {
		t.Fatalf("pick = %s, want clean", got.addr)
	}
	// Load the clean backend far past the flaky tier penalty: tiers still
	// dominate session counts.
	clean.active = 1 << 18
	if got := gw.pick(nil); got != flaky {
		t.Fatalf("pick with clean overloaded = %s, want flaky (tier beats load)", got.addr)
	}
	// Decay the flaky backend below the threshold: it is a normal candidate
	// again and wins on sessions.
	flaky.failEWMA = failEWMAShun / 2
	clean.active = 1
	if got := gw.pick(nil); got != flaky {
		t.Fatalf("pick after decay = %s, want flaky (fewest sessions)", got.addr)
	}
}

// Topology-aware routing: a draining backend ranks below any active one but
// above a dead one, and a drained backend is never picked at all — not even
// when it is the only one left.
func TestPickTopologyTiers(t *testing.T) {
	active := &backend{addr: "active", healthy: true, node: 1, state: "active"}
	draining := &backend{addr: "draining", healthy: true, node: 2, state: "draining"}
	drained := &backend{addr: "drained", healthy: true, node: 3, state: "drained"}
	gw := &Gateway{backends: []*backend{drained, draining, active}}

	if got := gw.pick(nil); got != active {
		t.Fatalf("pick = %s, want active", got.addr)
	}
	// The draining tier dominates load: even a massively loaded active
	// backend beats a draining one...
	active.active = 1 << 18
	if got := gw.pick(nil); got != active {
		t.Fatalf("pick with active loaded = %s, want active (draining tier beats load)", got.addr)
	}
	// ...until the load exceeds the tier penalty itself.
	active.active = 1 << 20
	if got := gw.pick(nil); got != draining {
		t.Fatalf("pick with active saturated = %s, want draining", got.addr)
	}
	// Excluding the current backend (migration target selection) skips it.
	active.active = 0
	if got := gw.pick(active); got != draining {
		t.Fatalf("pick excluding active = %s, want draining", got.addr)
	}
	// A drained backend is gone for good: with nothing else routable there is
	// no backend at all.
	only := &Gateway{backends: []*backend{drained}}
	if got := only.pick(nil); got != nil {
		t.Fatalf("pick among drained = %s, want nil", got.addr)
	}
}
