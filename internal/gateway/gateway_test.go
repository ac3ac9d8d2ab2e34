package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// fakeBackend is a minimal wire.Backend whose commits can be stalled, so a
// test can arrange for an OpCommit to be in flight at the exact moment the
// backend dies — the window where the gateway must answer with
// ErrCommitAmbiguous rather than guess. Its join info names no node, so the
// prober never learns a topology state for it: a test sets the state
// directly.
type fakeBackend struct {
	commitGate chan struct{} // nil = commit immediately; else commit blocks on it
	begins     atomic.Int64  // transactions opened here
}

func (f *fakeBackend) Begin(iso uint8, budget time.Duration) (wire.Tx, error) {
	f.begins.Add(1)
	return &fakeTx{be: f}, nil
}
func (f *fakeBackend) CreateSpace(name string) (uint32, error) { return 1, nil }
func (f *fakeBackend) SpaceID(name string) (uint32, error)     { return 1, nil }
func (f *fakeBackend) StatsJSON() ([]byte, error)              { return []byte(`{}`), nil }
func (f *fakeBackend) TopologyJSON() ([]byte, error)           { return []byte(`{}`), nil }
func (f *fakeBackend) Drain(node uint16) error                 { return nil }
func (f *fakeBackend) JoinInfoJSON() ([]byte, error)           { return []byte(`{}`), nil }
func (f *fakeBackend) TxStatus(g common.GTrxID) (uint8, uint64, error) {
	return wire.TxStatusUnknown, 0, nil
}

type fakeTx struct {
	be *fakeBackend
}

func (t *fakeTx) Get(space uint32, key []byte) ([]byte, error)          { return []byte("v"), nil }
func (t *fakeTx) GetForUpdate(space uint32, key []byte) ([]byte, error) { return []byte("v"), nil }
func (t *fakeTx) Insert(space uint32, key, value []byte) error          { return nil }
func (t *fakeTx) Update(space uint32, key, value []byte) error          { return nil }
func (t *fakeTx) Upsert(space uint32, key, value []byte) error          { return nil }
func (t *fakeTx) Delete(space uint32, key []byte) error                 { return nil }
func (t *fakeTx) Scan(space uint32, from, to []byte, limit int) ([]wire.KV, error) {
	return nil, nil
}
func (t *fakeTx) Commit() error {
	if t.be.commitGate != nil {
		<-t.be.commitGate
	}
	return nil
}
func (t *fakeTx) Rollback() error { return nil }

// GTrxID marks the transaction globally identifiable: the v3 OpBegin token
// must be non-zero or the client will not arm commit-ambiguity handling.
func (t *fakeTx) GTrxID() common.GTrxID {
	return common.GTrxID{Node: 1, Trx: 42, Slot: 7, Version: 1}
}

// startFake serves a fakeBackend on an ephemeral port.
func startFake(t *testing.T, be *fakeBackend, name string) (addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.ServeSessions(lis, name, be, &wire.NetCounters{})
	return lis.Addr().String(), srv.Close
}

// startGateway wires a gateway over the given backend addresses with fast
// probes, serving on an ephemeral port.
func startGateway(t *testing.T, addrs ...string) (gw *Gateway, addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gw = New(lis, addrs, 50*time.Millisecond)
	return gw, gw.Addr().String(), gw.Close
}

// waitHealthy blocks until the prober has marked addr healthy.
func waitHealthy(t *testing.T, gw *Gateway, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, b := range gw.backends {
			if b.addr == addr {
				b.mu.Lock()
				ok := b.healthy
				b.mu.Unlock()
				if ok {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend %s never became healthy", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGatewayAmbiguousCommitOnBackendDeath kills a backend while an OpCommit
// is in flight through the gateway. The client must receive the typed
// ErrCommitAmbiguous (with the transaction's global id attached), not a
// generic disconnect, and the session itself must survive by failing over to
// the second backend.
func TestGatewayAmbiguousCommitOnBackendDeath(t *testing.T) {
	stall := &fakeBackend{commitGate: make(chan struct{})}
	defer close(stall.commitGate) // unwedge the stuck handler at exit
	aAddr, aStop := startFake(t, stall, "backend-a")
	bAddr, bStop := startFake(t, &fakeBackend{}, "backend-b")
	defer bStop()

	gw, gwAddr, gwStop := startGateway(t, aAddr, bAddr)
	defer gwStop()
	waitHealthy(t, gw, aAddr)
	waitHealthy(t, gw, bAddr)

	// Force the session onto backend-a by making b look loaded.
	for _, b := range gw.backends {
		if b.addr == bAddr {
			b.mu.Lock()
			b.active += 10
			b.mu.Unlock()
		}
	}
	cl, err := wire.DialSession(gwAddr, wire.SessionConfig{Name: "chaos-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tx.GTrxID().Zero() {
		t.Fatal("v3 Begin did not carry a global transaction id")
	}

	commitErr := make(chan error, 1)
	go func() { commitErr <- tx.Commit() }()
	time.Sleep(100 * time.Millisecond) // let OpCommit reach the stalled backend
	// SIGKILL-equivalent: connections die with responses owed. Close waits
	// for the stalled commit handler, so it runs detached until the deferred
	// gate close unwedges it.
	go aStop()

	select {
	case err := <-commitErr:
		if !errors.Is(err, common.ErrCommitAmbiguous) {
			t.Fatalf("in-flight commit at backend death: want ErrCommitAmbiguous, got %v", err)
		}
		var amb *wire.AmbiguousCommitError
		if !errors.As(err, &amb) || amb.GTrx.Zero() {
			t.Fatalf("ambiguous commit lost its global id: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit hung after backend death")
	}

	// The session failed over: the same connection keeps working against b.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := cl.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session did not survive backend death")
		}
		time.Sleep(10 * time.Millisecond)
	}
	tx2, err := cl.Begin(0, 0)
	if err != nil {
		t.Fatalf("begin after failover: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after failover: %v", err)
	}
}

// TestGatewayStaleHandlesAfterFailover opens a transaction, kills its
// backend while the session is idle, and checks that later requests against
// the stranded handle fail typed at the gateway (the dead backend rolled it
// back on disconnect) while rollback succeeds trivially.
func TestGatewayStaleHandlesAfterFailover(t *testing.T) {
	aAddr, aStop := startFake(t, &fakeBackend{}, "backend-a")
	bAddr, bStop := startFake(t, &fakeBackend{}, "backend-b")
	defer bStop()

	gw, gwAddr, gwStop := startGateway(t, aAddr, bAddr)
	defer gwStop()
	waitHealthy(t, gw, aAddr)
	waitHealthy(t, gw, bAddr)
	for _, b := range gw.backends {
		if b.addr == bAddr {
			b.mu.Lock()
			b.active += 10
			b.mu.Unlock()
		}
	}

	cl, err := wire.DialSession(gwAddr, wire.SessionConfig{Name: "chaos-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	aStop()

	// The gateway notices the death lazily (on the next forward) or eagerly
	// (pump read error) — either way the handle must come back typed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = tx.Get(1, []byte("k"))
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests against a dead backend's handle kept succeeding")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !errors.Is(err, common.ErrUnreachable) {
		t.Fatalf("stale-handle request: want ErrUnreachable, got %v", err)
	}
	// Once the failover has quarantined the handle, rollback is trivially
	// satisfied and reads stay typed.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := tx.Get(1, []byte("k")); errors.Is(err, common.ErrUnreachable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale handle never quarantined")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback of stale handle: %v", err)
	}
}

// TestGatewayNoGoroutineLeakUnderRepeatedKills cycles sacrificial backends
// through kill/failover while a client keeps working, then checks the
// gateway-side goroutine count settles back to baseline — the regression
// gate for leaked pumps, probers, or half-dead sessions.
func TestGatewayNoGoroutineLeakUnderRepeatedKills(t *testing.T) {
	keepAddr, keepStop := startFake(t, &fakeBackend{}, "backend-keep")
	defer keepStop()

	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		sacAddr, sacStop := startFake(t, &fakeBackend{}, fmt.Sprintf("backend-sac-%d", i))
		gw, gwAddr, gwStop := startGateway(t, sacAddr, keepAddr)
		waitHealthy(t, gw, sacAddr)
		waitHealthy(t, gw, keepAddr)

		cl, err := wire.DialSession(gwAddr, wire.SessionConfig{Name: "leak-test"})
		if err != nil {
			t.Fatal(err)
		}
		tx, err := cl.Begin(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		_ = tx
		sacStop() // kill whichever backend the session landed on (or its peer)

		// Keep the session busy across the death so failover paths run.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := cl.Ping(); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("session never recovered")
			}
			time.Sleep(10 * time.Millisecond)
		}
		cl.Close()
		gwStop()
	}

	// Everything closed: the goroutine count must return to (near) baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked under repeated kills: base %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestGatewayCloseEndsIdleSessions: Close must not wait for clients to hang
// up. It ends every live session, so a daemon with an idle client connected
// still shuts down, and that client's next call fails typed.
func TestGatewayCloseEndsIdleSessions(t *testing.T) {
	addr, stop := startFake(t, &fakeBackend{}, "backend-a")
	defer stop()
	gw, gwAddr, gwStop := startGateway(t, addr)
	waitHealthy(t, gw, addr)

	cl, err := wire.DialSession(gwAddr, wire.SessionConfig{Name: "close-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		gwStop()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		cl.Close() // let Close return before the test ends
		<-closed
		t.Fatal("Close had not returned 2s after it was called with an idle client connected")
	}
	if err := cl.Ping(); !errors.Is(err, common.ErrUnreachable) {
		t.Fatalf("ping after Close = %v; want ErrUnreachable", err)
	}
}

// TestGatewayDropsSilentClient: a client that connects and never sends its
// hello holds nothing past wire.HelloTimeout. The gateway closes the
// connection and the session goroutine ends, taking its acceptor entry with
// it, while the gateway itself stays up.
func TestGatewayDropsSilentClient(t *testing.T) {
	t.Parallel()
	addr, stop := startFake(t, &fakeBackend{}, "backend-a")
	defer stop()
	gw, gwAddr, gwStop := startGateway(t, addr)
	defer gwStop()

	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(wire.HelloTimeout + 5*time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read on a silent client connection = %v; want EOF from the gateway closing it", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := gw.acc.Live()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still tracked after the silent client was closed", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
