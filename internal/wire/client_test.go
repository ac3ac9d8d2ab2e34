package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// stubBackend is an in-memory Backend for exercising the client's reconnect
// and ambiguity paths without an engine: committed writes land in data,
// rollbacks are observable on a channel, and hooks let tests block or fail a
// commit at the exact moment a connection dies.
type stubBackend struct {
	mu      sync.Mutex
	data    map[string][]byte
	nextTrx uint64

	// commitHook, when set, runs inside Tx.Commit before the writes apply.
	commitHook func(*stubTx) error
	// statusHook, when set, serves TxStatus.
	statusHook func(g common.GTrxID) (uint8, uint64, error)

	rolledBack chan common.GTrxID
	commits    atomic.Int64
}

func newStubBackend() *stubBackend {
	return &stubBackend{
		data:       make(map[string][]byte),
		rolledBack: make(chan common.GTrxID, 16),
	}
}

func (b *stubBackend) Begin(iso uint8, budget time.Duration) (Tx, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextTrx++
	return &stubTx{
		be:     b,
		g:      common.GTrxID{Node: 1, Trx: common.TrxID(b.nextTrx), Slot: uint32(b.nextTrx), Version: 1},
		writes: make(map[string][]byte),
	}, nil
}

func (b *stubBackend) CreateSpace(name string) (uint32, error) { return 1, nil }
func (b *stubBackend) SpaceID(name string) (uint32, error)     { return 1, nil }
func (b *stubBackend) StatsJSON() ([]byte, error)              { return []byte("{}"), nil }
func (b *stubBackend) TopologyJSON() ([]byte, error)           { return []byte("{}"), nil }
func (b *stubBackend) Drain(node uint16) error                 { return nil }
func (b *stubBackend) JoinInfoJSON() ([]byte, error)           { return []byte("{}"), nil }

func (b *stubBackend) TxStatus(g common.GTrxID) (uint8, uint64, error) {
	if b.statusHook != nil {
		return b.statusHook(g)
	}
	return TxStatusUnknown, 0, nil
}

func (b *stubBackend) get(space uint32, key []byte) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.data[fmt.Sprintf("%d/%s", space, key)]
}

type stubTx struct {
	be     *stubBackend
	g      common.GTrxID
	writes map[string][]byte
}

func (t *stubTx) GTrxID() common.GTrxID { return t.g }

func (t *stubTx) Get(space uint32, key []byte) ([]byte, error) {
	if v, ok := t.writes[fmt.Sprintf("%d/%s", space, key)]; ok {
		return v, nil
	}
	if v := t.be.get(space, key); v != nil {
		return v, nil
	}
	return nil, common.ErrNotFound
}
func (t *stubTx) GetForUpdate(space uint32, key []byte) ([]byte, error) { return t.Get(space, key) }
func (t *stubTx) Insert(space uint32, key, value []byte) error {
	t.writes[fmt.Sprintf("%d/%s", space, key)] = append([]byte(nil), value...)
	return nil
}
func (t *stubTx) Update(space uint32, key, value []byte) error { return t.Insert(space, key, value) }
func (t *stubTx) Upsert(space uint32, key, value []byte) error { return t.Insert(space, key, value) }
func (t *stubTx) Delete(space uint32, key []byte) error        { return nil }
func (t *stubTx) Scan(space uint32, from, to []byte, limit int) ([]KV, error) {
	return nil, nil
}

func (t *stubTx) Commit() error {
	if t.be.commitHook != nil {
		if err := t.be.commitHook(t); err != nil {
			return err
		}
	}
	t.be.mu.Lock()
	for k, v := range t.writes {
		t.be.data[k] = v
	}
	t.be.mu.Unlock()
	t.be.commits.Add(1)
	return nil
}

func (t *stubTx) Rollback() error {
	t.be.rolledBack <- t.g
	return nil
}

func serveStub(t *testing.T, be *stubBackend) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeSessions(lis, "stub", be, &NetCounters{})
	t.Cleanup(srv.Close)
	return srv, lis.Addr().String()
}

// A dial to a dead address must come back as common.ErrUnreachable — the
// transient class retry loops and the gateway's health prober key off.
func TestDialDeadAddressIsUnreachable(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	_ = lis.Close()

	_, err = DialSession(addr, SessionConfig{DialTimeout: time.Second})
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if !errors.Is(err, common.ErrUnreachable) {
		t.Fatalf("dial error = %v; want ErrUnreachable", err)
	}
}

// A half-open server (accepts, then never answers the hello) must fail the
// dial at DialTimeout with ErrUnreachable, not hang: this is the read half
// of a partition-while-connecting.
func TestDialHalfOpenServerTimesOut(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never respond
		}
	}()

	start := time.Now()
	_, err = DialSession(lis.Addr().String(), SessionConfig{DialTimeout: 200 * time.Millisecond})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial of half-open server succeeded")
	}
	if !errors.Is(err, common.ErrUnreachable) {
		t.Fatalf("dial error = %v; want ErrUnreachable", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("half-open dial took %v; want ~DialTimeout", elapsed)
	}
}

// When the server goes away under an established session, in-flight and
// subsequent calls fail with ErrUnreachable; once a server is back on the
// same address, the next call must redial transparently instead of wedging
// the client forever.
func TestClientRedialsAfterServerRestart(t *testing.T) {
	be := newStubBackend()
	srv, addr := serveStub(t, be)

	cl, err := DialSession(addr, SessionConfig{Name: "reconnect-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	if err := cl.Ping(); !errors.Is(err, common.ErrUnreachable) {
		t.Fatalf("ping with server down = %v; want ErrUnreachable", err)
	}

	// Resurrect a server on the same address (a replacement process after
	// a crash — the gateway harness's rejoin phase in miniature).
	var lis net.Listener
	for i := 0; i < 50; i++ {
		if lis, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	srv2 := ServeSessions(lis, "stub2", be, &NetCounters{})
	defer srv2.Close()

	// The first call after resurrection may race the redial; it must
	// succeed within a short, bounded window — never wedge.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = cl.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered after server restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A connection that dies with a commit in flight must surface
// *AmbiguousCommitError carrying the transaction's global id — the server
// may still complete the commit, so the client cannot claim abort or
// success. This is the !responded half of the ambiguity contract.
func TestCommitAmbiguousWhenConnDiesMidCommit(t *testing.T) {
	be := newStubBackend()
	entered := make(chan struct{})
	release := make(chan struct{})
	be.commitHook = func(*stubTx) error {
		close(entered)
		<-release
		return nil
	}
	srv, addr := serveStub(t, be)

	cl, err := DialSession(addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tx.GTrxID().Zero() {
		t.Fatal("v3 begin returned a zero global transaction id")
	}
	if err := tx.Insert(1, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	commitErr := make(chan error, 1)
	go func() { commitErr <- tx.Commit() }()
	<-entered

	// Kill every session conn with the commit parked server-side, then let
	// the commit finish into the void.
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	err = <-commitErr
	close(release)
	<-closed

	var amb *AmbiguousCommitError
	if !errors.As(err, &amb) {
		t.Fatalf("commit over dying conn = %v; want *AmbiguousCommitError", err)
	}
	if !errors.Is(err, common.ErrCommitAmbiguous) {
		t.Fatalf("ambiguous commit error does not match ErrCommitAmbiguous: %v", err)
	}
	if amb.GTrx != tx.GTrxID() {
		t.Fatalf("ambiguous commit carries gtrx %v; want %v", amb.GTrx, tx.GTrxID())
	}
	// The commit DID land server-side — exactly why the client must not
	// guess "aborted".
	if got := be.get(1, []byte("k")); string(got) != "v" {
		t.Fatalf("server-side commit lost: got %q", got)
	}
}

// A commit the server itself reports as ambiguous (e.g. a satellite died
// mid-takeover) must round-trip the sentinel through the typed error codec
// and come out as *AmbiguousCommitError on the client.
func TestCommitAmbiguousSentinelRoundTrip(t *testing.T) {
	be := newStubBackend()
	be.commitHook = func(*stubTx) error {
		return fmt.Errorf("takeover in flight: %w", common.ErrCommitAmbiguous)
	}
	_, addr := serveStub(t, be)

	cl, err := DialSession(addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	var amb *AmbiguousCommitError
	if !errors.As(err, &amb) || amb.GTrx != tx.GTrxID() {
		t.Fatalf("server-reported ambiguity = %v; want *AmbiguousCommitError with gtrx %v", err, tx.GTrxID())
	}
}

// A definitive server-side commit error (here: write conflict) must NOT be
// wrapped as ambiguous — the server answered, the outcome is known.
func TestCommitDefinitiveErrorIsNotAmbiguous(t *testing.T) {
	be := newStubBackend()
	be.commitHook = func(*stubTx) error { return common.ErrWriteConflict }
	_, addr := serveStub(t, be)

	cl, err := DialSession(addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if !errors.Is(err, common.ErrWriteConflict) {
		t.Fatalf("commit = %v; want ErrWriteConflict", err)
	}
	if errors.Is(err, common.ErrCommitAmbiguous) {
		t.Fatalf("definitive conflict reported as ambiguous: %v", err)
	}
}

// A client that vanishes with transactions open must not leak them: the
// server's session teardown rolls back every open transaction, so a dying
// client cannot pin row locks or TIT slots.
func TestServerRollsBackOrphanedTxOnDisconnect(t *testing.T) {
	be := newStubBackend()
	_, addr := serveStub(t, be)

	cl, err := DialSession(addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := cl.Begin(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(1, []byte("orphan"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	g := tx.GTrxID()
	cl.Close() // vanish without commit or rollback

	select {
	case rb := <-be.rolledBack:
		if rb != g {
			t.Fatalf("server rolled back %v; want %v", rb, g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never rolled back the orphaned transaction")
	}
	if got := be.get(1, []byte("orphan")); got != nil {
		t.Fatalf("orphaned transaction's write published: %q", got)
	}
}

// ResolveTx must absorb transient ErrUnreachable answers with backoff and
// land on the definitive outcome — the exact loop the chaos harness leans
// on when it resolves ambiguous commits through a healing partition.
func TestResolveTxAbsorbsTransientUnreachable(t *testing.T) {
	be := newStubBackend()
	var calls atomic.Int64
	be.statusHook = func(g common.GTrxID) (uint8, uint64, error) {
		if calls.Add(1) <= 3 {
			return 0, 0, common.ErrUnreachable
		}
		return TxStatusCommitted, 42, nil
	}
	_, addr := serveStub(t, be)

	cl, err := DialSession(addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := common.GTrxID{Node: 1, Trx: 7, Slot: 7, Version: 1}
	outcome, cts, err := cl.ResolveTx(g, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != TxStatusCommitted || cts != 42 {
		t.Fatalf("ResolveTx = (%d, %d); want (committed, 42)", outcome, cts)
	}
	if n := calls.Load(); n < 4 {
		t.Fatalf("status served %d times; want >= 4 (3 unreachable + 1 definitive)", n)
	}
}

// ResolveTx against a permanently unreachable status backend must give up
// at its timeout — bounded, never wedged — and report the transaction as
// unresolved rather than guessing an outcome.
func TestResolveTxBoundedByTimeout(t *testing.T) {
	be := newStubBackend()
	be.statusHook = func(g common.GTrxID) (uint8, uint64, error) {
		return 0, 0, common.ErrUnreachable
	}
	_, addr := serveStub(t, be)

	cl, err := DialSession(addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := common.GTrxID{Node: 1, Trx: 9, Slot: 9, Version: 1}
	start := time.Now()
	outcome, _, err := cl.ResolveTx(g, 400*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ResolveTx with unreachable status succeeded")
	}
	if outcome != TxStatusUnknown {
		t.Fatalf("unresolved outcome = %d; want TxStatusUnknown", outcome)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("ResolveTx ran %v past a 400ms timeout", elapsed)
	}
}

// A zero global id cannot be resolved (pre-v3 server or a backend without
// global ids): ResolveTx must say so immediately instead of polling.
func TestResolveTxRejectsZeroID(t *testing.T) {
	be := newStubBackend()
	_, addr := serveStub(t, be)
	cl, err := DialSession(addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.ResolveTx(common.GTrxID{}, time.Second); err == nil {
		t.Fatal("ResolveTx of the zero id succeeded")
	}
}

// TestSessionGoldenFrames pins the session handshake and the OpBegin
// response byte for byte: the client's hello, the server's hello-ack and the
// [tx][gtrx] begin response are what every deployed binary exchanges, so a
// refactor of the session code must not move a single byte of them.
func TestSessionGoldenFrames(t *testing.T) {
	const (
		helloHex = "1600000003010000000000000000030006000000676f6c64656e"
		ackHex   = "1a0000000302000000000000000000000000000003000400000073747562"
		beginHex = "2a000000020109000000000000000000000000000100000000000000010001000000000000000100000001000000"
	)
	readRaw := func(conn net.Conn) string {
		t.Helper()
		var raw bytes.Buffer
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, _, err := ReadFrame(io.TeeReader(conn, &raw), nil); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(raw.Bytes())
	}

	// The client's hello, as a listener sees it.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		if cl, err := DialSession(lis.Addr().String(), SessionConfig{Name: "golden", DialTimeout: time.Second}); err == nil {
			cl.Close()
		}
	}()
	conn, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	hello := readRaw(conn)
	conn.Close() // the dial fails; only its hello mattered
	if hello != helloHex {
		t.Fatalf("hello frame\n got %s\nwant %s", hello, helloHex)
	}

	// The server's answers to that hello and to an OpBegin.
	_, addr := serveStub(t, newStubBackend())
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw, _ := hex.DecodeString(hello)
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if ack := readRaw(conn); ack != ackHex {
		t.Fatalf("hello-ack frame\n got %s\nwant %s", ack, ackHex)
	}
	begin := Frame{Kind: KindRequest, Op: OpBegin, ID: 9, Payload: AppendU64([]byte{0}, 0)}
	if _, err := WriteFrame(conn, nil, begin); err != nil {
		t.Fatal(err)
	}
	if resp := readRaw(conn); resp != beginHex {
		t.Fatalf("OpBegin response frame\n got %s\nwant %s", resp, beginHex)
	}
}
