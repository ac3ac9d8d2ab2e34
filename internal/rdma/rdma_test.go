package rdma

import (
	"errors"
	"sync"
	"testing"
	"time"

	"polardbmp/internal/common"
)

func TestOneSidedReadWrite(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 64)

	src := []byte("hello, fabric")
	if err := f.Write(1, "mem", 8, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := f.Read(1, "mem", 8, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != string(src) {
		t.Fatalf("read back %q", dst)
	}
	if s := f.Stats().Snapshot(); s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("stats reads=%d writes=%d", s.Reads, s.Writes)
	}
}

func TestReadWrite64(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 16)
	if err := f.Write64(1, "mem", 8, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := f.Read64(1, "mem", 8)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("v=%x err=%v", v, err)
	}
}

func TestBoundsChecking(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 16)
	if err := f.Write(1, "mem", 10, make([]byte, 8)); !errors.Is(err, common.ErrOutOfBounds) {
		t.Fatalf("out-of-bounds write err = %v", err)
	}
	if err := f.Read(1, "mem", -1, make([]byte, 4)); !errors.Is(err, common.ErrOutOfBounds) {
		t.Fatalf("negative offset err = %v", err)
	}
}

func TestCAS64(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 8)
	prev, err := f.CAS64(1, "mem", 0, 0, 42)
	if err != nil || prev != 0 {
		t.Fatalf("prev=%d err=%v", prev, err)
	}
	prev, err = f.CAS64(1, "mem", 0, 0, 99)
	if err != nil || prev != 42 {
		t.Fatalf("failed CAS should observe 42, got %d err=%v", prev, err)
	}
	v, _ := f.Read64(1, "mem", 0)
	if v != 42 {
		t.Fatalf("value after failed CAS = %d", v)
	}
}

func TestFetchAdd64Concurrent(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("ctr", 8)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if _, err := f.FetchAdd64(1, "ctr", 0, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, _ := f.Read64(1, "ctr", 0)
	if v != 8000 {
		t.Fatalf("counter = %d, want 8000", v)
	}
}

func TestRPC(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(2)
	ep.Serve("echo", func(req []byte) ([]byte, error) {
		out := append([]byte("re:"), req...)
		return out, nil
	})
	resp, err := f.Call(2, "echo", []byte("ping"))
	if err != nil || string(resp) != "re:ping" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	if _, err := f.Call(2, "nosuch", nil); err == nil {
		t.Fatal("call to unknown service should fail")
	}
}

func TestNodeDown(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 8)
	ep.Serve("svc", func([]byte) ([]byte, error) { return nil, nil })
	ep.Deregister()

	if err := f.Write64(1, "mem", 0, 1); !errors.Is(err, common.ErrNodeDown) {
		t.Fatalf("write to dead node err = %v", err)
	}
	if _, err := f.Call(1, "svc", nil); !errors.Is(err, common.ErrNodeDown) {
		t.Fatalf("call to dead node err = %v", err)
	}
	// Re-register revives the node with fresh regions.
	ep2 := f.Register(1)
	ep2.RegisterRegion("mem", 8)
	if err := f.Write64(1, "mem", 0, 7); err != nil {
		t.Fatalf("write after revive: %v", err)
	}
}

func TestDoubleRegisterPanics(t *testing.T) {
	f := NewFabric(Latency{})
	f.Register(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double register")
		}
	}()
	f.Register(1)
}

func TestLocalAccess(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	r := ep.RegisterRegion("mem", 32)
	if err := r.LocalWrite64(0, 123); err != nil {
		t.Fatal(err)
	}
	v, err := r.LocalRead64(0)
	if err != nil || v != 123 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	prev, err := r.LocalCAS64(0, 123, 456)
	if err != nil || prev != 123 {
		t.Fatalf("cas prev=%d err=%v", prev, err)
	}
	// Local access must not count as fabric traffic.
	if s := f.Stats().Snapshot(); s.Total() != 0 {
		t.Fatalf("local ops counted as fabric traffic: %+v", s)
	}
}

func TestMissingRegion(t *testing.T) {
	f := NewFabric(Latency{})
	f.Register(1)
	if err := f.Read(1, "nope", 0, make([]byte, 1)); err == nil {
		t.Fatal("read of unknown region should fail")
	}
}

func TestLatencyInjection(t *testing.T) {
	// The host's sleep floor is coarse (often ~1ms), so inject well above
	// it and just verify the delay is felt.
	f := NewFabric(Latency{OneSided: 5 * time.Millisecond, RPC: 5 * time.Millisecond})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 8)
	ep.Serve("svc", func([]byte) ([]byte, error) { return nil, nil })

	start := time.Now()
	if err := f.Write64(1, "mem", 0, 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("one-sided write took %v, injection not applied", d)
	}
	start = time.Now()
	if _, err := f.Call(1, "svc", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("rpc took %v, injection not applied", d)
	}
}
