package gateway

import (
	"testing"
	"time"

	"polardbmp/internal/core"
	"polardbmp/internal/wire"
)

// migrationRig is two fake backends behind one gateway, with one client
// session pinned to backend a.
type migrationRig struct {
	gw     *Gateway
	fa, fb *fakeBackend
	a, b   *backend
	cl     *wire.Client
}

func newMigrationRig(t *testing.T) *migrationRig {
	t.Helper()
	r := &migrationRig{fa: &fakeBackend{}, fb: &fakeBackend{}}
	aAddr, aStop := startFake(t, r.fa, "backend-a")
	t.Cleanup(aStop)
	bAddr, bStop := startFake(t, r.fb, "backend-b")
	t.Cleanup(bStop)
	gw, gwAddr, gwStop := startGateway(t, aAddr, bAddr)
	t.Cleanup(gwStop)
	waitHealthy(t, gw, aAddr)
	waitHealthy(t, gw, bAddr)
	r.gw, r.a, r.b = gw, gw.backends[0], gw.backends[1]

	// Pin the session to a by making b look loaded.
	r.b.mu.Lock()
	r.b.active += 10
	r.b.mu.Unlock()
	cl, err := wire.DialSession(gwAddr, wire.SessionConfig{Name: "migrate-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	r.cl = cl
	return r
}

// drain marks a's node draining, as the topology probe would.
func (r *migrationRig) drain() {
	r.a.mu.Lock()
	r.a.state = core.NodeDraining
	r.a.mu.Unlock()
}

// begins reports how many transactions each fake backend has opened.
func (r *migrationRig) begins() (a, b int64) { return r.fa.begins.Load(), r.fb.begins.Load() }

// TestGatewayMigratesAtTransactionBoundary drains the pinned backend while a
// transaction is open: a Begin then still runs on the draining backend,
// because the session is not at a transaction boundary, and only the Begin
// after the last open transaction's Commit response runs on the other one.
// The client sees no error at any point.
func TestGatewayMigratesAtTransactionBoundary(t *testing.T) {
	r := newMigrationRig(t)
	tx1, err := r.cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.drain()

	tx2, err := r.cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := r.begins(); a != 2 || b != 0 {
		t.Fatalf("Begin with a transaction open: begins a=%d b=%d, want 2 and 0 (no migration)", a, b)
	}
	if _, err := tx2.Get(1, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Get(1, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}

	tx3, err := r.cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := r.begins(); a != 2 || b != 1 {
		t.Fatalf("Begin at a transaction boundary: begins a=%d b=%d, want 2 and 1 (migrated)", a, b)
	}
	if _, err := tx3.Get(1, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r.cl.Ping(); err != nil {
		t.Fatal(err)
	}
	r.a.mu.Lock()
	aActive := r.a.active
	r.a.mu.Unlock()
	r.b.mu.Lock()
	bActive := r.b.active
	r.b.mu.Unlock()
	if aActive != 0 || bActive != 11 {
		t.Fatalf("after migration: active sessions a=%d b=%d, want 0 and 11", aActive, bActive)
	}
}

// TestGatewayCutoverIsNotFailover: closing the old upstream to cut a session
// over ends that upstream's pump like a death would, but it is no failure.
// The old backend stays healthy with an untouched failure average, no codec
// error is counted, and no synthesized status reaches the client: every
// frame the client sent gets exactly one response.
func TestGatewayCutoverIsNotFailover(t *testing.T) {
	r := newMigrationRig(t)
	tx, err := r.cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.a.mu.Lock()
	ewma := r.a.failEWMA
	r.a.mu.Unlock()
	if ewma != 0 {
		t.Fatalf("backend a failEWMA %v before the cutover, want 0", ewma)
	}
	r.drain()

	tx, err = r.cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := r.begins(); a != 1 || b != 1 {
		t.Fatalf("begins a=%d b=%d, want 1 and 1 (migrated)", a, b)
	}
	// Watch a for longer than a probe interval: a failover would mark it
	// unhealthy until its next clean probe and leave its average above 0.
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		if _, err := tx.Get(1, []byte("k")); err != nil {
			t.Fatalf("request after the cutover: %v", err)
		}
		r.a.mu.Lock()
		healthy, ewma, lastErr := r.a.healthy, r.a.failEWMA, r.a.lastErr
		r.a.mu.Unlock()
		if !healthy || ewma != 0 || lastErr != "" {
			t.Fatalf("cutover counted as a failure of a: healthy=%v failEWMA=%v lastErr=%q", healthy, ewma, lastErr)
		}
		time.Sleep(time.Millisecond)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The pump counts a response after writing it, so the last one may
	// still be on its way to the counter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ns := r.gw.nc.Snapshot()
		if ns.CodecErrors != 0 {
			t.Fatalf("cutover counted %d codec errors", ns.CodecErrors)
		}
		if ns.FramesOut > ns.FramesIn {
			t.Fatalf("gateway sent %d frames for %d received: a synthesized response reached the client", ns.FramesOut, ns.FramesIn)
		}
		if ns.FramesOut == ns.FramesIn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway sent %d frames for %d received", ns.FramesOut, ns.FramesIn)
		}
		time.Sleep(time.Millisecond)
	}
}
