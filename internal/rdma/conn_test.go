package rdma

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// connVerbs is every Conn verb as one call against node 1's "mem" region or
// "echo" service, with the fault class the injector sees for it.
var connVerbs = []struct {
	name, class string
	do          func(c Conn) error
}{
	{"Read", common.FaultRead, func(c Conn) error { return c.Read(1, "mem", 0, make([]byte, 8)) }},
	{"Write", common.FaultWrite, func(c Conn) error { return c.Write(1, "mem", 0, make([]byte, 8)) }},
	{"Read64", common.FaultRead, func(c Conn) error { _, err := c.Read64(1, "mem", 0); return err }},
	{"Write64", common.FaultWrite, func(c Conn) error { return c.Write64(1, "mem", 0, 7) }},
	{"CAS64", common.FaultAtomic, func(c Conn) error { _, err := c.CAS64(1, "mem", 8, 0, 0); return err }},
	{"FetchAdd64", common.FaultAtomic, func(c Conn) error { _, err := c.FetchAdd64(1, "mem", 8, 1); return err }},
	{"Call", common.FaultRPC, func(c Conn) error { _, err := c.Call(1, "echo", []byte{1}); return err }},
	{"ReadV", common.FaultRead, func(c Conn) error { return c.ReadV(1, "mem", []Seg{{Off: 0, Buf: make([]byte, 8)}}) }},
	{"WriteV", common.FaultWrite, func(c Conn) error { return c.WriteV(1, "mem", []Seg{{Off: 0, Buf: make([]byte, 8)}}) }},
	{"CallBatch", common.FaultRPC, func(c Conn) error { _, err := c.CallBatch(1, "echo", [][]byte{{1}, {2}}); return err }},
}

// connFabrics yields the issuing fabric and its serving fabric (the same one
// in-process): node 1 serves "mem" and "echo", the issuer speaks as node 2.
func connFabrics(t *testing.T, socket bool) (issuer, server *Fabric) {
	if socket {
		server, issuer, _, _ = twoProcessFabric(t)
	} else {
		server = NewFabric(Latency{})
		issuer = server
	}
	ep := server.Register(1)
	ep.RegisterRegion("mem", 64)
	ep.Serve("echo", func(req []byte) ([]byte, error) { return req, nil })
	return issuer, server
}

// decisions installs on f an injector answering err to the first fails ops of
// class bound for node 1 (every one when fails < 0) and counts its decisions
// on those ops.
func decisions(f *Fabric, class string, fails int, err error) *atomic.Int64 {
	var n atomic.Int64
	f.SetInjector(func(op common.FaultOp) common.FaultDecision {
		if op.Class != class || op.Dst != 1 {
			return common.FaultDecision{}
		}
		if k := n.Add(1); fails < 0 || k <= int64(fails) {
			return common.FaultDecision{Err: err}
		}
		return common.FaultDecision{}
	})
	return &n
}

var fastRetry = common.RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Microsecond, MaxDelay: 50 * time.Microsecond}

// TestConnRetryConvention pins the one call convention: every Conn verb, in
// process and over a socket link, retries transient faults under its bound
// policy and deadline and nothing else, counted in injector decisions.
func TestConnRetryConvention(t *testing.T) {
	for _, socket := range []bool{false, true} {
		for _, v := range connVerbs {
			name := v.name + map[bool]string{false: "/inproc", true: "/socket"}[socket]
			t.Run(name, func(t *testing.T) {
				issuer, server := connFabrics(t, socket)
				conn := issuer.From(2).WithRetry(fastRetry)

				n := decisions(issuer, v.class, 3, common.ErrInjected)
				if err := v.do(conn); err != nil || n.Load() != 4 {
					t.Fatalf("3 transient faults: err %v after %d decisions, want success after 4", err, n.Load())
				}

				n = decisions(issuer, v.class, -1, common.ErrInjected)
				if err := v.do(conn); !errors.Is(err, common.ErrInjected) || n.Load() != int64(fastRetry.MaxAttempts) {
					t.Fatalf("persistent fault: err %v after %d decisions, want ErrInjected after %d", err, n.Load(), fastRetry.MaxAttempts)
				}

				n = decisions(issuer, v.class, -1, common.ErrInjected)
				if err := v.do(conn.WithRetry(common.NoRetryPolicy())); !errors.Is(err, common.ErrInjected) || n.Load() != 1 {
					t.Fatalf("NoRetryPolicy: err %v after %d decisions, want 1", err, n.Load())
				}

				n = decisions(issuer, v.class, -1, common.ErrNodeDown)
				if err := v.do(conn); !errors.Is(err, common.ErrNodeDown) || n.Load() != 1 {
					t.Fatalf("ErrNodeDown: err %v after %d decisions, want 1", err, n.Load())
				}

				// The next backoff (at least 200ms) would outlive the 50ms
				// budget: the verb gives up at once instead of sleeping.
				decisions(issuer, v.class, -1, common.ErrInjected)
				slow := conn.WithRetry(common.RetryPolicy{MaxAttempts: 5, BaseDelay: 400 * time.Millisecond})
				start := time.Now()
				err := v.do(slow.WithDeadline(common.DeadlineAfter(50 * time.Millisecond)))
				if !errors.Is(err, common.ErrDeadlineExceeded) || time.Since(start) > 150*time.Millisecond {
					t.Fatalf("short deadline: err %v after %v, want ErrDeadlineExceeded well before the backoff", err, time.Since(start))
				}
				issuer.SetInjector(nil)

				if socket {
					// The callee runs each caller attempt exactly once.
					caller := decisions(issuer, v.class, -1, nil)
					callee := decisions(server, v.class, 2, common.ErrInjected)
					if err := v.do(conn); err != nil || caller.Load() != 3 || callee.Load() != 3 {
						t.Fatalf("callee fault: err %v, %d caller attempts, %d callee runs; want success, 3 and 3",
							err, caller.Load(), callee.Load())
					}
					server.SetInjector(nil)
				}
			})
		}
	}
}

// TestConnStampsOncePerVerb: a stamped Call carries the epoch read when the
// verb was issued on every attempt, even when the stamp moves between
// attempts, and CallBatch stamps each request.
func TestConnStampsOncePerVerb(t *testing.T) {
	for _, socket := range []bool{false, true} {
		issuer, server := connFabrics(t, socket)
		var mu sync.Mutex
		var seen []uint64
		server.Register(3).Serve("rec", func(req []byte) ([]byte, error) {
			mu.Lock()
			seen = append(seen, binary.LittleEndian.Uint64(req[len(req)-8:]))
			mu.Unlock()
			return nil, nil
		})
		epochs := func() []uint64 {
			mu.Lock()
			defer mu.Unlock()
			out := seen
			seen = nil
			return out
		}
		stamp := &common.EpochStamp{}
		stamp.Store(7)
		conn := issuer.From(2).WithRetry(fastRetry).WithStamp(stamp)
		// Lose the first two replies (the handler ran) and move the epoch.
		var n atomic.Int64
		issuer.SetInjector(func(op common.FaultOp) common.FaultDecision {
			if op.Class != common.FaultRPC || op.Dst != 3 || n.Add(1) > 2 {
				return common.FaultDecision{}
			}
			stamp.Store(common.Epoch(7 + n.Load()))
			return common.FaultDecision{DropReply: true}
		})
		if _, err := conn.Call(3, "rec", []byte{1}); err != nil {
			t.Fatal(err)
		}
		if got := epochs(); len(got) != 3 || got[0] != 7 || got[1] != 7 || got[2] != 7 {
			t.Fatalf("socket=%v: Call attempts carried epochs %v, want [7 7 7]", socket, got)
		}
		issuer.SetInjector(nil)
		if _, err := conn.CallBatch(3, "rec", [][]byte{{1}, {2}, {3}}); err != nil {
			t.Fatal(err)
		}
		if got := epochs(); len(got) != 3 || got[0] != 9 || got[1] != 9 || got[2] != 9 {
			t.Fatalf("socket=%v: CallBatch requests carried epochs %v, want [9 9 9]", socket, got)
		}
	}
}

// TestAnyNodeConnIsUnbound: a Conn issued as AnyNode is charged to the
// fabric-wide Stats only, as the raw Fabric methods are — no per-source
// counter exists for it to count into — and it stamps nothing.
func TestAnyNodeConnIsUnbound(t *testing.T) {
	f, _ := connFabrics(t, false)
	stamp := &common.EpochStamp{}
	f.BindStamp(common.AnyNode, stamp)
	var last []byte
	f.Register(3).Serve("rec", func(req []byte) ([]byte, error) { last = req; return nil, nil })
	conn := f.From(common.AnyNode)
	for _, v := range connVerbs {
		if err := v.do(conn); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
	}
	if _, err := conn.Call(3, "rec", []byte{1}); err != nil || len(last) != 1 {
		t.Fatalf("AnyNode Call delivered %x (%v), want the unstamped request", last, err)
	}
	if got, want := f.Stats().Snapshot().Total(), int64(len(connVerbs)+1); got != want {
		t.Errorf("fabric Stats counted %d ops, want %d", got, want)
	}
	if got := f.SrcStats(common.AnyNode).Snapshot().Total(); got != 0 {
		t.Errorf("AnyNode per-source counter counted %d ops, want 0", got)
	}
}
