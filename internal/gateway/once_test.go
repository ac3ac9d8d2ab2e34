package gateway

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"polardbmp/internal/wire"
)

// startDying serves a backend that dies under every client session: it
// acks the hello, reads the first request frame and closes the connection
// with the rest of the pipeline unread. Probe sessions (hello name
// mpgateway-probe) are relayed to a healthy fake backend, so the prober
// keeps the dying backend routable.
func startDying(t *testing.T) (addr string) {
	t.Helper()
	probeAddr, probeStop := startFake(t, &fakeBackend{}, "probe-target")
	t.Cleanup(probeStop)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go serveDying(conn, probeAddr)
		}
	}()
	return lis.Addr().String()
}

func serveDying(conn net.Conn, probeAddr string) {
	defer conn.Close()
	hf, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return
	}
	if _, name, _ := wire.DecodeHello(hf.Payload); name == "mpgateway-probe" {
		up, err := net.Dial("tcp", probeAddr)
		if err != nil {
			return
		}
		defer up.Close()
		if _, err := wire.WriteFrame(up, nil, hf); err != nil {
			return
		}
		go func() {
			_, _ = io.Copy(up, conn)
			_ = up.Close()
		}()
		_, _ = io.Copy(conn, up)
		return
	}
	ack := wire.AppendHello(wire.AppendStatus(nil, nil), wire.SessionProtoVersion, "backend-dying")
	if _, err := wire.WriteFrame(conn, nil, wire.Frame{Kind: wire.KindControl, Op: wire.SessHelloAck, Payload: ack}); err != nil {
		return
	}
	_, _, _ = wire.ReadFrame(conn, nil)
}

// pipelineOnce opens one raw session through the gateway, writes n request
// frames of op (ids 1..n) in one write, and reads responses until every id
// is answered and a grace period has passed. It returns how many responses
// each id got and how many of them succeeded.
func pipelineOnce(t *testing.T, gwAddr string, op uint8, payload []byte, n int) (answers map[uint64]int, ok int) {
	t.Helper()
	hello := wire.Frame{Kind: wire.KindControl, Op: wire.SessHello, Payload: wire.AppendHello(nil, wire.SessionProtoVersion, "once-test")}
	conn, _, _, err := wire.Dial(gwAddr, nil, hello, wire.SessHelloAck, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var out []byte
	for id := uint64(1); id <= uint64(n); id++ {
		out = wire.AppendFrame(out, wire.Frame{Kind: wire.KindRequest, Op: op, ID: id, Payload: payload})
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}

	answers = make(map[uint64]int)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		f, _, err := wire.ReadFrame(conn, nil)
		if err != nil {
			if len(answers) < n {
				t.Fatalf("%d of %d ids answered: %v", len(answers), n, err)
			}
			return answers, ok
		}
		answers[f.ID]++
		if wire.DecodeStatus(wire.NewReader(f.Payload)) == nil {
			ok++
		}
		if len(answers) == n {
			// A second answer to any id would arrive right behind the first.
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
		}
	}
}

// TestGatewayAnswersEachRequestOnce pipelines requests at a backend that
// dies at the first of them. Every request must get exactly one response:
// the one it had from the backend it was written to, or the status the
// gateway synthesized when that backend died, never both. A Begin answered
// as failed must not also open a transaction on the next backend. A relay
// that can answer twice does so only when its goroutines run in parallel,
// so the test runs with at least four Ps.
func TestGatewayAnswersEachRequestOnce(t *testing.T) {
	const sessions, depth = 100, 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	healthy := &fakeBackend{}
	goodAddr, goodStop := startFake(t, healthy, "backend-good")
	defer goodStop()
	dyingAddr := startDying(t)
	gw, gwAddr, gwStop := startGateway(t, dyingAddr, goodAddr)
	defer gwStop()
	waitHealthy(t, gw, dyingAddr)
	waitHealthy(t, gw, goodAddr)
	dying := gw.backends[0]

	begin := wire.AppendU64([]byte{0}, 0) // [iso u8][budget micros u64]
	for _, tc := range []struct {
		name    string
		op      uint8
		payload []byte
	}{{"ping", wire.OpPing, nil}, {"begin", wire.OpBegin, begin}} {
		t.Run(tc.name, func(t *testing.T) {
			before := healthy.begins.Load()
			succeeded := 0
			for i := 0; i < sessions; i++ {
				// Every session lands on the dying backend: the failure its
				// last session recorded is forgotten, as a clean probe would.
				dying.mu.Lock()
				dying.healthy, dying.failEWMA = true, 0
				dying.mu.Unlock()
				answers, ok := pipelineOnce(t, gwAddr, tc.op, tc.payload, depth)
				for id, k := range answers {
					if k != 1 {
						t.Fatalf("session %d: id %d answered %d times", i, id, k)
					}
				}
				succeeded += ok
			}
			if tc.op == wire.OpBegin {
				if opened := healthy.begins.Load() - before; opened != int64(succeeded) {
					t.Fatalf("healthy backend opened %d transactions; the client saw %d Begins succeed", opened, succeeded)
				}
			}
		})
	}
}
