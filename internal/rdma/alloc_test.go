package rdma

import "testing"

// TestInprocVerbAllocs pins what one in-process verb allocates, issued
// through a Conn and through the raw Fabric methods: nothing, except
// Read64's word, which escapes through the transport interface, and
// CallBatch's response slice.
func TestInprocVerbAllocs(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 64)
	ep.Serve("echo", func(req []byte) ([]byte, error) { return req, nil })
	c := f.From(2)
	buf := make([]byte, 16)
	segs := []Seg{{Off: 0, Buf: make([]byte, 8)}, {Off: 32, Buf: make([]byte, 8)}}
	req, reqs := []byte{1}, [][]byte{{1}, {2}}
	verbs := []struct {
		name      string
		want      float64
		conn, raw func() error
	}{
		{"Read", 0,
			func() error { return c.Read(1, "mem", 0, buf) },
			func() error { return f.Read(1, "mem", 0, buf) }},
		{"Write", 0,
			func() error { return c.Write(1, "mem", 0, buf) },
			func() error { return f.Write(1, "mem", 0, buf) }},
		{"ReadV", 0,
			func() error { return c.ReadV(1, "mem", segs) },
			func() error { return f.ReadV(1, "mem", segs) }},
		{"WriteV", 0,
			func() error { return c.WriteV(1, "mem", segs) },
			func() error { return f.WriteV(1, "mem", segs) }},
		{"CAS64", 0,
			func() error { _, err := c.CAS64(1, "mem", 40, 0, 0); return err },
			func() error { _, err := f.CAS64(1, "mem", 40, 0, 0); return err }},
		{"FetchAdd64", 0,
			func() error { _, err := c.FetchAdd64(1, "mem", 48, 1); return err },
			func() error { _, err := f.FetchAdd64(1, "mem", 48, 1); return err }},
		{"Call", 0,
			func() error { _, err := c.Call(1, "echo", req); return err },
			func() error { _, err := f.Call(1, "echo", req); return err }},
		{"Read64", 1,
			func() error { _, err := c.Read64(1, "mem", 0); return err },
			func() error { _, err := f.Read64(1, "mem", 0); return err }},
		{"CallBatch", 1,
			func() error { _, err := c.CallBatch(1, "echo", reqs); return err },
			func() error { _, err := f.CallBatch(1, "echo", reqs); return err }},
	}
	for _, v := range verbs {
		for _, path := range []struct {
			name string
			do   func() error
		}{{"Conn", v.conn}, {"Fabric", v.raw}} {
			if a := testing.AllocsPerRun(200, func() {
				if err := path.do(); err != nil {
					t.Fatal(err)
				}
			}); a != v.want {
				t.Errorf("%s through %s: %.1f allocs per verb, want %.0f", v.name, path.name, a, v.want)
			}
		}
	}
}
