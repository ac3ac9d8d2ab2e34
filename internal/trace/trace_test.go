package trace

import (
	"sync"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
)

// TestRingWraparound hammers FinishTx from several goroutines (run under
// -race) and checks the recent ring stays bounded, newest-first, and
// internally consistent after wrapping many times.
func TestRingWraparound(t *testing.T) {
	tr := New(1, Config{RingSize: 8, SlowTxThreshold: 1, SlowLogSize: 4}, &rdma.Stats{})
	const goroutines, per = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				gid := common.GTrxID{Node: common.NodeID(g), Trx: common.TrxID(i + 1)}
				tt := tr.StartTx(gid, time.Now())
				tok := tt.Start()
				tt.Observe(StageBegin, tok)
				tr.FinishTx(tt, common.CSN(i+1), true)
			}
		}(g)
	}
	wg.Wait()

	if got := tr.RecentCount(); got != goroutines*per {
		t.Fatalf("published %d traces, want %d", got, goroutines*per)
	}
	recent := tr.Recent(100)
	if len(recent) != 8 {
		t.Fatalf("ring returned %d traces, want ring size 8", len(recent))
	}
	for _, s := range recent {
		if s.GTrx == "" || len(s.Spans) != 1 || s.Spans[0].Stage != "begin" {
			t.Fatalf("corrupt trace in ring: %+v", s)
		}
	}
	slow := tr.Slow()
	if len(slow) == 0 || len(slow) > 4 {
		t.Fatalf("slow log has %d entries, want 1..4", len(slow))
	}
}

func TestSlowTxThreshold(t *testing.T) {
	tr := New(1, Config{SlowTxThreshold: 50 * time.Millisecond}, nil)

	fast := tr.StartTx(common.GTrxID{Node: 1, Trx: 1}, time.Now())
	tr.FinishTx(fast, 1, true)
	if got := len(tr.Slow()); got != 0 {
		t.Fatalf("fast tx logged as slow (%d entries)", got)
	}

	slow := tr.StartTx(common.GTrxID{Node: 1, Trx: 2}, time.Now().Add(-time.Second))
	tr.FinishTx(slow, 2, true)
	got := tr.Slow()
	if len(got) != 1 || got[0].TotalNS < 50*time.Millisecond {
		t.Fatalf("slow tx not logged: %+v", got)
	}
}

// TestSpanOpAttribution drives the per-source fabric counters between Start
// and Observe and checks the delta lands on the span and the stage
// aggregate.
func TestSpanOpAttribution(t *testing.T) {
	var src rdma.Stats
	tr := New(3, Config{}, &src)
	tt := tr.StartTx(common.GTrxID{Node: 3, Trx: 9}, time.Now())

	tok := tt.Start()
	src.Reads.Inc()
	src.Reads.Inc()
	src.BytesRead.Add(8192)
	src.RPCs.Inc()
	tt.Observe(StageCTSStamp, tok)
	tr.FinishTx(tt, 7, true)

	sum := tt.Summary()
	if len(sum.Spans) != 1 {
		t.Fatalf("want 1 span, got %d", len(sum.Spans))
	}
	ops := sum.Spans[0].Ops
	if ops.Reads != 2 || ops.BytesRead != 8192 || ops.RPCs != 1 || ops.Writes != 0 {
		t.Fatalf("span ops = %+v", ops)
	}
	snaps := tr.StageSnapshots()
	var found bool
	for _, s := range snaps {
		if s.Stage == "cts_stamp" {
			found = true
			if s.Ops.Reads != 2 || s.Ops.RPCs != 1 {
				t.Fatalf("aggregate ops = %+v", s.Ops)
			}
		}
	}
	if !found {
		t.Fatalf("cts_stamp missing from snapshots: %+v", snaps)
	}
}

func TestSpanBound(t *testing.T) {
	tr := New(1, Config{}, nil)
	tt := tr.StartTx(common.GTrxID{Node: 1, Trx: 1}, time.Now())
	for i := 0; i < MaxSpans+10; i++ {
		tt.Mark(StageFrameDBP, tt.Start())
	}
	if len(tt.Spans) != MaxSpans || tt.Dropped != 10 {
		t.Fatalf("spans=%d dropped=%d", len(tt.Spans), tt.Dropped)
	}
}

func TestStagesDumpMerge(t *testing.T) {
	t1 := New(1, Config{}, nil)
	t2 := New(2, Config{}, nil)
	t1.Observe(StageLogSync, t1.Start())
	t2.Observe(StageLogSync, t2.Start())
	t2.Observe(StageTSOGroup, t2.Start())

	d := t1.Dump()
	d.Merge(t2.Dump())
	snaps := d.Snapshots()
	byName := map[string]StageSnapshot{}
	for _, s := range snaps {
		byName[s.Stage] = s
	}
	if byName["log_sync"].Count != 2 {
		t.Fatalf("merged log_sync count = %d, want 2", byName["log_sync"].Count)
	}
	if byName["tso_group"].Count != 1 {
		t.Fatalf("merged tso_group count = %d, want 1", byName["tso_group"].Count)
	}
	// Merging a nil dump is a no-op.
	d.Merge(nil)
	if got := d.Snapshots(); len(got) != len(snaps) {
		t.Fatalf("nil merge changed dump")
	}
}

// hookSequence is the exact set of tracer touch points the commit hot path
// executes: shared by the disabled-path alloc test and benchmark.
func hookSequence(tr *Tracer) {
	tt := tr.StartTx(common.GTrxID{Node: 1, Trx: 1}, time.Time{})
	tok := tt.Start()
	tt.Observe(StageBegin, tok)
	btok := tr.Start()
	tr.Observe(StagePLockLocal, btok)
	tok2 := tt.Start()
	tt.Mark(StageTSOSolo, tok2)
	tt.Observe(StageCTSStamp, tok2)
	tr.FinishTx(tt, 0, true)
}

// TestNilTracerZeroAllocs asserts the disabled tracer's hot-path hooks are
// allocation-free: one pointer check each, no time.Now, no escapes.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		hookSequence(tr)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer hook sequence allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkTracerDisabledCommitHooks is the CI alloc-budget smoke: the full
// per-commit hook sequence against a nil tracer. Expect 0 B/op, 0 allocs/op.
func BenchmarkTracerDisabledCommitHooks(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hookSequence(tr)
	}
}

// BenchmarkTracerEnabledCommitHooks bounds the enabled-tracer overhead for
// the same sequence (expect ~1 trace alloc + span appends per op).
func BenchmarkTracerEnabledCommitHooks(b *testing.B) {
	tr := New(1, Config{}, &rdma.Stats{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hookSequence(tr)
	}
}
