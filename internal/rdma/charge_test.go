package rdma

import (
	"errors"
	"testing"

	"polardbmp/internal/common"
)

// chargeVerb is one verb of TestFabricChargesOnce and the charge one
// successful execution of it makes.
type chargeVerb struct {
	name string
	run  func(c Conn) error
	once OpCounts
}

func chargeVerbs() []chargeVerb {
	segs := func() []Seg { return []Seg{{Off: 0, Buf: make([]byte, 8)}, {Off: 16, Buf: make([]byte, 4)}} }
	return []chargeVerb{
		{"Read", func(c Conn) error { return c.Read(1, "mem", 0, make([]byte, 16)) }, OpCounts{Reads: 1, BytesRead: 16}},
		{"Write", func(c Conn) error { return c.Write(1, "mem", 0, make([]byte, 32)) }, OpCounts{Writes: 1, BytesWrite: 32}},
		{"ReadV", func(c Conn) error { return c.ReadV(1, "mem", segs()) }, OpCounts{Reads: 1, BytesRead: 12}},
		{"WriteV", func(c Conn) error { return c.WriteV(1, "mem", segs()) }, OpCounts{Writes: 1, BytesWrite: 12}},
		{"CAS64", func(c Conn) error { _, err := c.CAS64(1, "mem", 40, 0, 0); return err }, OpCounts{Atomics: 1}},
		{"FetchAdd64", func(c Conn) error { _, err := c.FetchAdd64(1, "mem", 40, 1); return err }, OpCounts{Atomics: 1}},
		{"Call", func(c Conn) error { _, err := c.Call(1, "echo", []byte("x")); return err }, OpCounts{RPCs: 1}},
		{"CallBatch", func(c Conn) error { _, err := c.CallBatch(1, "echo", [][]byte{{1}, {2}}); return err }, OpCounts{RPCs: 1}},
	}
}

func (o OpCounts) times(k int64) OpCounts {
	return OpCounts{o.Reads * k, o.Writes * k, o.Atomics * k, o.RPCs * k, o.BytesRead * k, o.BytesWrite * k}
}

// TestFabricChargesOnce pins the one charge rule over both transports: the
// issuing fabric charges a verb, op and bytes, once per successful
// execution — twice for a duplicated one-sided READ/WRITE, once for an RPC
// whose reply was lost after it ran, never for a verb that failed — and a
// serving fabric charges what it executed for another process the same way.
func TestFabricChargesOnce(t *testing.T) {
	for _, mode := range []string{"inproc", "socket"} {
		t.Run(mode, func(t *testing.T) {
			host := NewFabric(Latency{})
			issuer, server := host, (*Fabric)(nil)
			if mode == "socket" {
				host, issuer, _, _ = twoProcessFabric(t)
				server = host
			}
			ep := host.Register(1)
			ep.RegisterRegion("mem", 64)
			ep.Serve("echo", func(req []byte) ([]byte, error) { return req, nil })
			ep.Serve("fail", func([]byte) ([]byte, error) { return nil, common.ErrNotFound })
			conn := issuer.From(2).WithRetry(common.NoRetryPolicy())

			// check runs one verb under verdict and asserts what it charged
			// on the issuer's counters, the source's and the server's.
			check := func(what string, verdict common.FaultDecision, run func(Conn) error, wantErr error, want OpCounts) {
				t.Helper()
				issuer.SetInjector(func(common.FaultOp) common.FaultDecision { return verdict })
				defer issuer.SetInjector(nil)
				g0, s0 := issuer.Stats().Snapshot(), issuer.SrcStats(2).Snapshot()
				var h0 OpCounts
				if server != nil {
					h0 = server.Stats().Snapshot()
				}
				err := run(conn)
				switch {
				case wantErr == nil && err != nil:
					t.Fatalf("%s: %v", what, err)
				case wantErr != nil && !errors.Is(err, wantErr):
					t.Fatalf("%s: err = %v, want %v", what, err, wantErr)
				}
				if got := issuer.Stats().Snapshot().Sub(g0); got != want {
					t.Errorf("%s: fabric charged %+v, want %+v", what, got, want)
				}
				if got := issuer.SrcStats(2).Snapshot().Sub(s0); got != want {
					t.Errorf("%s: source charged %+v, want %+v", what, got, want)
				}
				if server != nil {
					if got := server.Stats().Snapshot().Sub(h0); got != want {
						t.Errorf("%s: serving fabric charged %+v, want %+v", what, got, want)
					}
				}
			}

			for _, v := range chargeVerbs() {
				check(v.name, common.FaultDecision{}, v.run, nil, v.once)
				// A duplicate re-executes only the idempotent one-sided
				// READ/WRITE verbs; atomics and RPCs ignore it.
				dup := v.once
				if v.once.Reads+v.once.Writes > 0 {
					dup = v.once.times(2)
				}
				check(v.name+" duplicated", common.FaultDecision{Duplicate: true}, v.run, nil, dup)
				if v.once.RPCs > 0 {
					check(v.name+" reply dropped", common.FaultDecision{DropReply: true}, v.run, common.ErrInjected, v.once)
				}
			}
			check("out-of-bounds Read", common.FaultDecision{},
				func(c Conn) error { return c.Read(1, "mem", 60, make([]byte, 16)) }, common.ErrOutOfBounds, OpCounts{})
			check("failing handler", common.FaultDecision{},
				func(c Conn) error { _, err := c.Call(1, "fail", nil); return err }, common.ErrNotFound, OpCounts{})
		})
	}
}
