package rdma

import (
	"errors"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// TestConnWithDeadline verifies that an expired-deadline connection refuses
// every verb with ErrDeadlineExceeded before touching the fabric, and that
// the base connection (and an unexpired copy) still works.
func TestConnWithDeadline(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(7)
	ep.RegisterRegion("r", 64)
	ep.Serve("svc", func(req []byte) ([]byte, error) { return req, nil })

	base := f.From(9)
	live := base.WithDeadline(common.DeadlineAfter(time.Hour))
	dead := base.WithDeadline(common.DeadlineAt(time.Now().Add(-time.Millisecond)))

	var b [8]byte
	if err := base.Read(7, "r", 0, b[:]); err != nil {
		t.Fatalf("base Read: %v", err)
	}
	if err := live.Read(7, "r", 0, b[:]); err != nil {
		t.Fatalf("live Read: %v", err)
	}

	checks := []struct {
		name string
		op   func() error
	}{
		{"Read", func() error { return dead.Read(7, "r", 0, b[:]) }},
		{"Write", func() error { return dead.Write(7, "r", 0, b[:]) }},
		{"CAS64", func() error { _, err := dead.CAS64(7, "r", 0, 0, 1); return err }},
		{"FetchAdd64", func() error { _, err := dead.FetchAdd64(7, "r", 0, 1); return err }},
		{"Call", func() error { _, err := dead.Call(7, "svc", []byte{1}); return err }},
		{"ReadV", func() error { return dead.ReadV(7, "r", []Seg{{Off: 0, Buf: b[:]}}) }},
		{"WriteV", func() error { return dead.WriteV(7, "r", []Seg{{Off: 0, Buf: b[:]}}) }},
		{"CallBatch", func() error { _, err := dead.CallBatch(7, "svc", [][]byte{{1}}); return err }},
	}
	ops0 := f.Stats().Snapshot()
	for _, c := range checks {
		if err := c.op(); !errors.Is(err, common.ErrDeadlineExceeded) {
			t.Fatalf("%s on expired conn: err = %v, want ErrDeadlineExceeded", c.name, err)
		}
	}
	if ops1 := f.Stats().Snapshot(); ops1.Total() != ops0.Total() {
		t.Fatalf("expired-deadline verbs reached the fabric: ops %+v -> %+v", ops0, ops1)
	}
}
