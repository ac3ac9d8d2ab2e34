package rdma

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// readRawFrame reads one frame off conn and returns its bytes as hex,
// skipping keepalive pings.
func readRawFrame(t *testing.T, conn net.Conn) string {
	t.Helper()
	for {
		var raw bytes.Buffer
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, _, err := wire.ReadFrame(io.TeeReader(conn, &raw), nil)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind != wire.KindControl || f.Op != copPing {
			return hex.EncodeToString(raw.Bytes())
		}
	}
}

func writeHex(t *testing.T, conn net.Conn, h string) {
	t.Helper()
	raw, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
}

// TestFabricGoldenFrames pins the socket fabric's frames byte for byte, as
// TestSessionGoldenFrames does the session's: the dialer's hello, the
// acceptor's hello-ack, one OpRead request and its response, one announce.
// The bytes are what this test read at the commit before peerLink moved onto
// wire.Link (the hello's random peer id zeroed), with the hello and the
// hello-ack carrying FabricProtoVersion 4.
func TestFabricGoldenFrames(t *testing.T) {
	const (
		helloHex    = "22000000030100000000000000000400000000000000000006000000676f6c64656e01000700"
		ackHex      = "1a0000000302000000000000000000000000000004000400000073656564"
		readReqHex  = "210000000101010000000000000002000100030000006d656d100000000000000008000000"
		readRespHex = "18000000020101000000000000000000000000001011121314151617"
		announceHex = "0e0000000303000000000000000001000900"
	)

	// The dialer's frames, as a listener sees them.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	fb := NewFabric(Latency{})
	dialed := make(chan *Peer, 1)
	go func() {
		p, err := DialPeer(fb, lis.Addr().String(), PeerConfig{Name: "golden", Hosted: []common.NodeID{7}})
		if err != nil {
			t.Error(err)
		}
		dialed <- p
	}()
	conn, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, _ := hex.DecodeString(readRawFrame(t, conn))
	copy(hello[16:24], make([]byte, 8)) // the peer id is random per process
	if got := hex.EncodeToString(hello); got != helloHex {
		t.Fatalf("hello frame\n got %s\nwant %s", got, helloHex)
	}
	writeHex(t, conn, ackHex)
	peer := <-dialed
	if peer == nil {
		t.FailNow()
	}
	defer peer.Close()
	fb.AttachDefault(peer)
	go func() { _ = fb.From(2).Read(1, "mem", 16, make([]byte, 8)) }()
	if got := readRawFrame(t, conn); got != readReqHex {
		t.Fatalf("OpRead request frame\n got %s\nwant %s", got, readReqHex)
	}
	if err := peer.Announce(9); err != nil {
		t.Fatal(err)
	}
	if got := readRawFrame(t, conn); got != announceHex {
		t.Fatalf("announce frame\n got %s\nwant %s", got, announceHex)
	}

	// The acceptor's answers to that hello and that read.
	fa := NewFabric(Latency{})
	mem := fa.Register(1).RegisterRegion("mem", 64)
	for i := range mem.buf {
		mem.buf[i] = byte(i)
	}
	lis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeFabric(fa, lis2, "seed", nil)
	defer srv.Close()
	raw, err := net.Dial("tcp", lis2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	writeHex(t, raw, helloHex)
	if got := readRawFrame(t, raw); got != ackHex {
		t.Fatalf("hello-ack frame\n got %s\nwant %s", got, ackHex)
	}
	writeHex(t, raw, readReqHex)
	if got := readRawFrame(t, raw); got != readRespHex {
		t.Fatalf("OpRead response frame\n got %s\nwant %s", got, readRespHex)
	}
}

// The fabric's half of the one net.codec_errors rule (the session's half is
// wire.TestLinkCodecErrorsCountOnlyTheCodec): a peer that resets its link
// leaves the counter at 0, a length prefix below the frame header or above
// MaxFrame makes it 1.
func TestFabricLinkCodecErrors(t *testing.T) {
	hello, _ := hex.DecodeString("22000000030100000000000000000400000000000000000006000000676f6c64656e01000700")
	for name, tc := range map[string]struct {
		after func(c net.Conn)
		want  int64
	}{
		"reset":           {func(c net.Conn) { _ = c.(*net.TCPConn).SetLinger(0); c.Close() }, 0},
		"length < header": {func(c net.Conn) { c.Write([]byte{9, 0, 0, 0}) }, 1},
		"length > max":    {func(c net.Conn) { c.Write(wire.AppendU32(nil, wire.MaxFrame+1)) }, 1},
	} {
		t.Run(name, func(t *testing.T) {
			fa := NewFabric(Latency{})
			fa.Register(1).RegisterRegion("mem", 64)
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			nc := &wire.NetCounters{}
			srv := ServeFabric(fa, lis, "seed", nc)
			defer srv.Close()
			c, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(hello); err != nil {
				t.Fatal(err)
			}
			if _, _, err := wire.ReadFrame(c, nil); err != nil {
				t.Fatal(err)
			}
			// A read answered and left unread, so closing resets.
			writeHex(t, c, "210000000101010000000000000002000100030000006d656d100000000000000008000000")
			waitFor(t, "the read's response", func() bool { return nc.FramesOut.Load() >= 2 })
			tc.after(c)
			waitFor(t, "the link to end", func() bool { return nc.Snapshot().ConnsOpen == 0 })
			if got := nc.CodecErrors.Load(); got != tc.want {
				t.Fatalf("codec errors = %d, want %d", got, tc.want)
			}
		})
	}
}

// The fabric half of wire.TestLinkRoundTripAllocs, same harness: a
// zero-length read issued on one peerLink cost 8 allocations per round trip
// at the commit before peerLink moved onto wire.Link (issuer, server and the
// verb's own share, counted process-wide).
func TestPeerLinkRoundTripAllocs(t *testing.T) {
	fa, _, peer, _ := twoProcessFabric(t)
	fa.Register(1).RegisterRegion("m", 64)
	l, err := peer.pick()
	if err != nil {
		t.Fatal(err)
	}
	p := wire.AppendU32(wire.AppendU64(verbHeader(2, 1, "m"), 0), 0)
	if a := testing.AllocsPerRun(1000, func() {
		if _, err := l.call(OpRead, p); err != nil {
			t.Fatal(err)
		}
	}); a > 8 {
		t.Fatalf("zero-length fabric read: %.1f allocs per round trip, parent 8", a)
	}
}

// The acceptor counts the dialer's hello as the dialer counted it: one frame
// out at the dialer is one frame in at the acceptor. A first frame that is
// not a hello is a codec error, as it is for the session server.
func TestFabricAcceptorCountsHello(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snc, dnc := &wire.NetCounters{}, &wire.NetCounters{}
	srv := ServeFabric(NewFabric(Latency{}), lis, "seed", snc)
	defer srv.Close()
	peer, err := DialPeer(NewFabric(Latency{}), lis.Addr().String(), PeerConfig{Name: "sat", Counters: dnc})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if out, in := dnc.Snapshot().FramesOut, snc.Snapshot().FramesIn; out != 1 || in != out {
		t.Fatalf("dialer counted %d frames out, acceptor %d in; want the hello on both", out, in)
	}

	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeHex(t, c, "210000000101010000000000000002000100030000006d656d100000000000000008000000")
	if _, _, err := wire.ReadFrame(c, nil); err == nil {
		t.Fatal("acceptor answered a request sent in place of the hello")
	}
	if got := snc.Snapshot(); got.FramesIn != 2 || got.CodecErrors != 1 {
		t.Fatalf("after a request in place of the hello: frames in %d, codec errors %d; want 2 and 1", got.FramesIn, got.CodecErrors)
	}
}
