package rdma

import (
	"errors"
	"sync"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// TestTypedErrors pins the sentinel classification of fabric error paths:
// retry logic depends on errors.Is working across the wrapping.
func TestTypedErrors(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 16)

	if err := f.Read(1, "nope", 0, make([]byte, 4)); !errors.Is(err, common.ErrNoRegion) {
		t.Fatalf("unknown region err = %v", err)
	}
	if _, err := f.Call(1, "nope", nil); !errors.Is(err, common.ErrNoService) {
		t.Fatalf("unknown service err = %v", err)
	}
	if _, err := f.CAS64(1, "mem", 12, 0, 1); !errors.Is(err, common.ErrOutOfBounds) {
		t.Fatalf("cas bounds err = %v", err)
	}
	if _, err := f.FetchAdd64(1, "mem", -8, 1); !errors.Is(err, common.ErrOutOfBounds) {
		t.Fatalf("fetch-add bounds err = %v", err)
	}
	if err := f.Read(2, "mem", 0, make([]byte, 4)); !errors.Is(err, common.ErrNodeDown) {
		t.Fatalf("unknown node err = %v", err)
	}
	// None of the addressing errors may classify as transient.
	for _, op := range []func() error{
		func() error { return f.Read(1, "nope", 0, make([]byte, 4)) },
		func() error { _, err := f.Call(1, "nope", nil); return err },
		func() error { return f.Read(2, "mem", 0, make([]byte, 4)) },
	} {
		if err := op(); common.IsTransient(err) {
			t.Fatalf("addressing error classified transient: %v", err)
		}
	}
}

// TestDeregisterRacingOps hammers Deregister against in-flight Calls and
// Reads: every op must either succeed or fail with ErrNodeDown — never
// panic, never return a stale success after the final teardown settles.
func TestDeregisterRacingOps(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		f := NewFabric(Latency{})
		ep := f.Register(1)
		ep.RegisterRegion("mem", 64)
		ep.Serve("echo", func(req []byte) ([]byte, error) { return req, nil })

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					if _, err := f.Call(1, "echo", []byte{1}); err != nil && !errors.Is(err, common.ErrNodeDown) {
						t.Errorf("call err = %v", err)
						return
					}
					if err := f.Read(1, "mem", 0, make([]byte, 8)); err != nil && !errors.Is(err, common.ErrNodeDown) {
						t.Errorf("read err = %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ep.Deregister()
		}()
		close(start)
		wg.Wait()

		// After teardown every op fails with ErrNodeDown.
		if err := f.Read(1, "mem", 0, make([]byte, 8)); !errors.Is(err, common.ErrNodeDown) {
			t.Fatalf("post-deregister read err = %v", err)
		}
		if _, err := f.Call(1, "echo", nil); !errors.Is(err, common.ErrNodeDown) {
			t.Fatalf("post-deregister call err = %v", err)
		}
	}
}

// TestDeregisterMidCall verifies an RPC whose handler outlives the endpoint
// is reported as a torn connection, not a success.
func TestDeregisterMidCall(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	entered := make(chan struct{})
	release := make(chan struct{})
	ep.Serve("slow", func(req []byte) ([]byte, error) {
		close(entered)
		<-release
		return []byte{42}, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := f.Call(1, "slow", nil)
		done <- err
	}()
	<-entered
	ep.Deregister()
	close(release)
	if err := <-done; !errors.Is(err, common.ErrNodeDown) {
		t.Fatalf("mid-call deregister err = %v", err)
	}
}

// TestStatsConcurrent checks Snapshot/Reset coherence under concurrent ops:
// counters only move forward between resets, and a final quiesced snapshot
// exactly matches the ops issued after the last reset.
func TestStatsConcurrent(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 64)
	ep.Serve("echo", func(req []byte) ([]byte, error) { return req, nil })

	const goroutines, opsEach = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent snapshot reader: values must never be negative
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := f.Stats().Snapshot(); s.Reads < 0 || s.Writes < 0 || s.Atomics < 0 || s.RPCs < 0 {
				t.Error("negative counter in snapshot")
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < opsEach; i++ {
				_ = f.Read(1, "mem", 0, buf)
				_ = f.Write(1, "mem", 8, buf)
				_, _ = f.FetchAdd64(1, "mem", 16, 1)
				_, _ = f.Call(1, "echo", buf)
			}
		}()
	}
	time.Sleep(time.Millisecond)
	f.Stats().Reset() // reset mid-flight: must not corrupt counters
	wg.Wait()
	close(stop)
	<-readerDone

	f.Stats().Reset()
	const n = 17
	buf := make([]byte, 8)
	for i := 0; i < n; i++ {
		_ = f.Read(1, "mem", 0, buf)
		_ = f.Write(1, "mem", 8, buf)
		_, _ = f.Call(1, "echo", buf)
	}
	if s := f.Stats().Snapshot(); s.Reads != n || s.Writes != n || s.Atomics != 0 || s.RPCs != n {
		t.Fatalf("quiesced snapshot = %+v, want (%d,%d,0,%d)", s, n, n, n)
	}
}

// TestInjectorDirectives exercises the injector contract: drops fail before
// execution, duplicates re-execute idempotent ops, drop-reply loses the
// response after the handler ran, and uninstalling stops injection.
func TestInjectorDirectives(t *testing.T) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 64)
	calls := 0
	ep.Serve("echo", func(req []byte) ([]byte, error) { calls++; return req, nil })

	// Drop: the op fails transient and never lands.
	f.SetInjector(func(op common.FaultOp) common.FaultDecision {
		return common.FaultDecision{Err: common.ErrInjected}
	})
	err := f.Write64(1, "mem", 0, 7)
	if !errors.Is(err, common.ErrInjected) || !common.IsTransient(err) {
		t.Fatalf("dropped write err = %v", err)
	}
	if _, err := f.Call(1, "echo", []byte{1}); !errors.Is(err, common.ErrInjected) {
		t.Fatalf("dropped call err = %v", err)
	}
	if calls != 0 {
		t.Fatalf("dropped call reached handler %d times", calls)
	}

	// Duplicate: one-sided write executes twice (stats see both).
	f.SetInjector(func(op common.FaultOp) common.FaultDecision {
		return common.FaultDecision{Duplicate: op.Class == common.FaultWrite}
	})
	f.Stats().Reset()
	if err := f.Write64(1, "mem", 0, 9); err != nil {
		t.Fatal(err)
	}
	if w := f.Stats().Snapshot().Writes; w != 2 {
		t.Fatalf("duplicated write counted %d times", w)
	}
	if v, _ := f.Read64(1, "mem", 0); v != 9 {
		t.Fatalf("value after duplicate write = %d", v)
	}

	// DropReply: handler runs, caller sees a transient loss.
	f.SetInjector(func(op common.FaultOp) common.FaultDecision {
		return common.FaultDecision{DropReply: op.Class == common.FaultRPC}
	})
	calls = 0
	if _, err := f.Call(1, "echo", []byte{1}); !errors.Is(err, common.ErrInjected) {
		t.Fatalf("drop-reply call err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("drop-reply handler ran %d times", calls)
	}

	// Uninstall: back to clean execution.
	f.SetInjector(nil)
	if _, err := f.Call(1, "echo", []byte{1}); err != nil {
		t.Fatalf("post-uninstall call err = %v", err)
	}
}
