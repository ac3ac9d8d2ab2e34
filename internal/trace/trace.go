// Package trace is the commit-path span tracer: an always-on, low-overhead
// decomposition of transaction latency into the PMFS stages the paper's
// evaluation (§6) argues in — TSO fetch, TIT reads, Lock Fusion RPCs, Buffer
// Fusion page transfers, log force — with per-span fabric-op and byte
// attribution on top of the rdma.Stats counters.
//
// The design splits two concerns:
//
//   - Per-stage aggregates: every stage occurrence anywhere on a node
//     (transaction or background) is observed exactly once into a lock-free
//     histogram, at the single choke point that classifies it — inside the
//     PLock client for local-vs-remote acquires, inside Buffer Fusion for
//     DBP-vs-storage fetches, inside the WAL writer for append/sync, inside
//     Transaction Fusion for solo-vs-group TSO allocation, and in core for
//     the stages only the transaction sees (begin, row-lock wait, CTS
//     stamp, whole commit).
//   - Per-transaction traces: a TxTrace records a bounded span timeline for
//     one transaction (the expensive events: remote lock fetches, page
//     transfers, log forces, TSO, stamping), kept in a bounded ring of
//     recent traces per node plus a slow-transaction log.
//
// A nil *Tracer (and the nil *TxTrace it hands out) is the disabled tracer:
// every method nil-checks its receiver, so instrumentation call sites are
// unconditional and the disabled cost is one pointer test with zero
// allocations (verified by TestNilTracerZeroAllocs and the alloc-budget
// benchmark).
package trace

import (
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
	"polardbmp/internal/rdma"
)

// Stage labels one segment of the commit pipeline.
type Stage uint8

const (
	// StageBegin is Begin: TIT slot allocation plus read-view setup.
	StageBegin Stage = iota
	// StagePLockLocal is a PLock granted from lazy retention (no fabric).
	StagePLockLocal
	// StagePLockRemote is a PLock fetched through Lock Fusion; the server
	// completes any holder revoke (including its flush) before replying,
	// so revoke waits are inside this stage.
	StagePLockRemote
	// StageRowLockWait is a row-lock wait on another active writer.
	StageRowLockWait
	// StageFrameLocal is an LBP hit (page already cached and valid).
	StageFrameLocal
	// StageFrameDBP is a page fetched from the distributed buffer pool
	// with a one-sided read.
	StageFrameDBP
	// StageFrameStorage is a page filled from shared storage.
	StageFrameStorage
	// StageLogAppend is one redo append (row mutations and the commit
	// record alike).
	StageLogAppend
	// StageLogSync is a group-commit log force that had to wait for
	// durability (no-op syncs behind the durable frontier are not counted).
	StageLogSync
	// StageTSOSolo is a commit CSN obtained by a combiner leader whose
	// round held only itself (one fetch-add, one beneficiary).
	StageTSOSolo
	// StageTSOGroup is a commit CSN granted out of a flat-combined round
	// (the round's single fetch-add covered k committers).
	StageTSOGroup
	// StageCTSStamp is commit-time CTS stamping plus the vectored push of
	// peer-waited pages.
	StageCTSStamp
	// StageCommit is the whole transaction, begin to finish.
	StageCommit
	// StageDeadlineAbort is a transaction aborted because its Deadline
	// budget expired; the duration is begin-to-abort, i.e. how much budget
	// the transaction burned before the abort checkpoint caught it.
	StageDeadlineAbort
	// StagePmfsReplicate is the replication tax on one PMFS-bound verb: the
	// time spent mirroring the op to the follower replicas and collecting
	// the quorum, measured by the pmfsrep layer and attributed to the
	// issuing node. The op counters stay zero on purpose — replication acks
	// ride the same doorbell batch as the leader op, so the verb's fabric
	// cost is already counted by the stage that issued it.
	StagePmfsReplicate
	// StageLogPipeline is a durability wait absorbed by the pipelined
	// group-commit syncer: the committer's frontier was covered by a sync
	// round already in flight (or started by the background syncer), so it
	// paid only the residual wait instead of running a full round itself.
	// StageLogSync keeps counting the syncs that had to run their own round.
	StageLogPipeline
	// StageCTSSpec is a speculative CTS resolution: the reader proved
	// visibility from the peer's recycle floor (every trx id at or below the
	// floor is finished and GMV-covered) without the one-sided TIT read.
	StageCTSSpec

	numStages
)

// NumStages is the number of defined stages.
const NumStages = int(numStages)

var stageNames = [numStages]string{
	"begin", "plock_local", "plock_remote", "rowlock_wait",
	"frame_local", "frame_dbp", "frame_storage",
	"log_append", "log_sync", "tso_solo", "tso_group",
	"cts_stamp", "commit",
	"deadline_abort", "pmfs_replicate",
	"log_pipeline", "cts_spec",
}

// String returns the stage's snake_case name (the JSON identity).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns the full stage taxonomy in declaration order.
func StageNames() []string { return append([]string(nil), stageNames[:]...) }

// OpCounts is a fabric-operation footprint: the rdma.Stats snapshot type.
type OpCounts = rdma.OpCounts

// Config tunes a node's tracer. The zero value gives the defaults.
type Config struct {
	// RingSize bounds the per-node ring of recent transaction traces
	// (default 256).
	RingSize int
	// SlowTxThreshold, when positive, logs every transaction at least
	// this slow into the slow-transaction ring.
	SlowTxThreshold time.Duration
	// SlowLogSize bounds the slow-transaction ring (default 64).
	SlowLogSize int
}

func (c *Config) fill() {
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 64
	}
}

// stageAgg is one stage's node-level aggregate: a latency histogram plus
// the fabric ops attributed to the stage.
type stageAgg struct {
	hist metrics.Histogram
	ops  rdma.Stats
}

// Tracer is one node's span collector. A nil *Tracer is the valid disabled
// tracer; all methods are safe on it.
type Tracer struct {
	node   common.NodeID
	cfg    Config
	fabric *rdma.Stats // the node's per-source fabric counters (may be nil)

	stages [numStages]stageAgg

	ringMu    sync.Mutex
	ring      []*TxTrace // len == cfg.RingSize, wraps
	ringNext  int
	ringTotal uint64

	slowMu    sync.Mutex
	slow      []*TxTrace // len == cfg.SlowLogSize, wraps
	slowNext  int
	slowTotal uint64
}

// New builds a tracer for node. fabric is the node's per-source rdma.Stats
// (rdma.Fabric.SrcStats) used for span op attribution; nil disables op
// attribution but not timing.
func New(node common.NodeID, cfg Config, fabric *rdma.Stats) *Tracer {
	cfg.fill()
	return &Tracer{
		node:   node,
		cfg:    cfg,
		fabric: fabric,
		ring:   make([]*TxTrace, cfg.RingSize),
		slow:   make([]*TxTrace, cfg.SlowLogSize),
	}
}

// Node returns the owning node id (0 on a nil tracer).
func (t *Tracer) Node() common.NodeID {
	if t == nil {
		return 0
	}
	return t.node
}

// SlowTxThreshold returns the configured slow-transaction threshold.
func (t *Tracer) SlowTxThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.SlowTxThreshold
}

// Token marks the start of a stage: a timestamp plus a fabric-op snapshot.
// The zero Token (from a nil tracer) is inert.
type Token struct {
	start time.Time
	ops   OpCounts
	valid bool
}

func (t *Tracer) snapOps() OpCounts {
	if t.fabric == nil {
		return OpCounts{}
	}
	return t.fabric.Snapshot()
}

// Start opens a stage measurement. On a nil tracer it returns the inert
// zero Token without reading the clock.
func (t *Tracer) Start() Token {
	if t == nil {
		return Token{}
	}
	return Token{start: time.Now(), ops: t.snapOps(), valid: true}
}

// Observe closes a stage measurement into the node aggregate: latency into
// the stage histogram, the fabric-op delta since Start into the stage's op
// counters. Inert on a nil tracer or zero Token.
func (t *Tracer) Observe(stage Stage, tok Token) {
	if t == nil || !tok.valid {
		return
	}
	t.observe(stage, time.Since(tok.start), t.snapOps().Sub(tok.ops))
}

// ObserveStage folds one externally measured duration into a stage's node
// aggregate with no fabric-op attribution — the hook for layers (pmfsrep)
// that measure latency themselves and whose verbs are already counted by the
// issuing stage. Inert on a nil tracer.
func (t *Tracer) ObserveStage(stage Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.observe(stage, d, OpCounts{})
}

func (t *Tracer) observe(stage Stage, d time.Duration, ops OpCounts) {
	agg := &t.stages[stage]
	agg.hist.Observe(d)
	agg.ops.Reads.Add(ops.Reads)
	agg.ops.Writes.Add(ops.Writes)
	agg.ops.Atomics.Add(ops.Atomics)
	agg.ops.RPCs.Add(ops.RPCs)
	agg.ops.BytesRead.Add(ops.BytesRead)
	agg.ops.BytesWrite.Add(ops.BytesWrite)
}

// --- per-transaction traces -------------------------------------------------

// MaxSpans bounds one transaction's recorded span timeline; later spans are
// counted in Dropped instead. The timeline records the expensive events
// (remote lock fetches, page transfers, log forces, TSO, stamping) — fast
// local hits are visible in the node aggregates instead.
const MaxSpans = 48

// Span is one recorded stage occurrence inside a transaction.
type Span struct {
	Stage Stage
	Start time.Duration // offset from the transaction's begin
	Dur   time.Duration
	Ops   OpCounts
}

// TxTrace is one transaction's span timeline. It is owned by the
// transaction's goroutine until FinishTx publishes it; a nil *TxTrace is
// the valid disabled trace.
type TxTrace struct {
	tr *Tracer

	G         common.GTrxID
	Begin     time.Time
	Total     time.Duration
	CTS       common.CSN
	Committed bool
	Spans     []Span
	Dropped   int
}

// StartTx opens a trace for transaction g that began at begin. Returns nil
// on a nil tracer.
func (t *Tracer) StartTx(g common.GTrxID, begin time.Time) *TxTrace {
	if t == nil {
		return nil
	}
	return &TxTrace{tr: t, G: g, Begin: begin, Spans: make([]Span, 0, 8)}
}

// Start opens a stage measurement against the owning tracer; inert on nil.
func (tt *TxTrace) Start() Token {
	if tt == nil {
		return Token{}
	}
	return tt.tr.Start()
}

// Mark records a span on the transaction timeline WITHOUT feeding the node
// aggregate — for stages whose aggregate observation happens inside the
// subsystem that executed them (lock client, Buffer Fusion, WAL, TSO), so
// each occurrence is aggregated exactly once.
func (tt *TxTrace) Mark(stage Stage, tok Token) {
	if tt == nil || !tok.valid {
		return
	}
	tt.addSpan(stage, tok, time.Since(tok.start))
}

// Observe records a span AND feeds the node aggregate — for the stages only
// core sees (begin, row-lock wait, CTS stamp).
func (tt *TxTrace) Observe(stage Stage, tok Token) {
	if tt == nil || !tok.valid {
		return
	}
	d := time.Since(tok.start)
	tt.tr.observe(stage, d, tt.tr.snapOps().Sub(tok.ops))
	tt.addSpan(stage, tok, d)
}

func (tt *TxTrace) addSpan(stage Stage, tok Token, d time.Duration) {
	if len(tt.Spans) >= MaxSpans {
		tt.Dropped++
		return
	}
	tt.Spans = append(tt.Spans, Span{
		Stage: stage,
		Start: tok.start.Sub(tt.Begin),
		Dur:   d,
		Ops:   tt.tr.snapOps().Sub(tok.ops),
	})
}

// FinishTx closes the trace: observes the whole-transaction latency into
// StageCommit, publishes the trace into the recent ring, and logs it into
// the slow ring when it crossed the threshold. The caller must not touch tt
// afterwards.
func (t *Tracer) FinishTx(tt *TxTrace, cts common.CSN, committed bool) {
	if t == nil || tt == nil {
		return
	}
	tt.Total = time.Since(tt.Begin)
	tt.CTS = cts
	tt.Committed = committed
	var ops OpCounts
	for i := range tt.Spans {
		ops.Add(tt.Spans[i].Ops)
	}
	t.observe(StageCommit, tt.Total, ops)

	t.ringMu.Lock()
	t.ring[t.ringNext] = tt
	t.ringNext = (t.ringNext + 1) % len(t.ring)
	t.ringTotal++
	t.ringMu.Unlock()

	if thr := t.cfg.SlowTxThreshold; thr > 0 && tt.Total >= thr {
		t.slowMu.Lock()
		t.slow[t.slowNext] = tt
		t.slowNext = (t.slowNext + 1) % len(t.slow)
		t.slowTotal++
		t.slowMu.Unlock()
	}
}

// --- snapshots --------------------------------------------------------------

// StageData is one stage's mergeable aggregate.
type StageData struct {
	Hist metrics.Histogram
	Ops  OpCounts
}

// StagesDump is a node's full per-stage aggregate in mergeable form.
type StagesDump struct {
	Stages [numStages]StageData
}

// Merge folds o into d (associative, commutative).
func (d *StagesDump) Merge(o *StagesDump) {
	if o == nil {
		return
	}
	for i := range d.Stages {
		d.Stages[i].Hist.Merge(&o.Stages[i].Hist)
		d.Stages[i].Ops.Add(o.Stages[i].Ops)
	}
}

// Dump captures the tracer's per-stage aggregates. Nil-safe (returns nil).
func (t *Tracer) Dump() *StagesDump {
	if t == nil {
		return nil
	}
	var d StagesDump
	for i := range t.stages {
		agg := &t.stages[i]
		d.Stages[i].Hist.Merge(&agg.hist)
		d.Stages[i].Ops = agg.ops.Snapshot()
	}
	return &d
}

// StageSnapshot is one stage's summarized aggregate, JSON-shaped for the
// BENCH_*-style dumps (durations in nanoseconds).
type StageSnapshot struct {
	Stage   string        `json:"stage"`
	Count   int64         `json:"count"`
	TotalNS int64         `json:"total_ns"`
	Mean    time.Duration `json:"mean_ns"`
	P50     time.Duration `json:"p50_ns"`
	P95     time.Duration `json:"p95_ns"`
	P99     time.Duration `json:"p99_ns"`
	Max     time.Duration `json:"max_ns"`
	Ops     OpCounts      `json:"ops"`
}

// Snapshots summarizes a dump, omitting stages never observed. Nil-safe.
func (d *StagesDump) Snapshots() []StageSnapshot {
	if d == nil {
		return nil
	}
	var out []StageSnapshot
	for i := range d.Stages {
		h := &d.Stages[i].Hist
		if h.Count() == 0 {
			continue
		}
		out = append(out, StageSnapshot{
			Stage:   Stage(i).String(),
			Count:   h.Count(),
			TotalNS: int64(h.Sum()),
			Mean:    h.Mean(),
			P50:     h.Quantile(0.50),
			P95:     h.Quantile(0.95),
			P99:     h.Quantile(0.99),
			Max:     h.Max(),
			Ops:     d.Stages[i].Ops,
		})
	}
	return out
}

// StageSnapshots summarizes this tracer's aggregates. Nil-safe.
func (t *Tracer) StageSnapshots() []StageSnapshot { return t.Dump().Snapshots() }

// SpanSummary is one span in JSON-shaped form.
type SpanSummary struct {
	Stage   string        `json:"stage"`
	StartNS time.Duration `json:"start_ns"`
	DurNS   time.Duration `json:"dur_ns"`
	Ops     OpCounts      `json:"ops"`
}

// TxSummary is one transaction trace in JSON-shaped form.
type TxSummary struct {
	GTrx      string        `json:"gtrx"`
	Node      uint16        `json:"node"`
	CTS       uint64        `json:"cts,omitempty"`
	Committed bool          `json:"committed"`
	TotalNS   time.Duration `json:"total_ns"`
	Spans     []SpanSummary `json:"spans,omitempty"`
	Dropped   int           `json:"spans_dropped,omitempty"`
}

// Summary renders the trace (valid before or after FinishTx on the owning
// goroutine, or after FinishTx from any goroutine holding the ring lock).
// Nil-safe (returns the zero summary).
func (tt *TxTrace) Summary() TxSummary {
	if tt == nil {
		return TxSummary{}
	}
	s := TxSummary{
		GTrx:      tt.G.String(),
		Node:      uint16(tt.G.Node),
		CTS:       uint64(tt.CTS),
		Committed: tt.Committed,
		TotalNS:   tt.Total,
		Dropped:   tt.Dropped,
	}
	for _, sp := range tt.Spans {
		s.Spans = append(s.Spans, SpanSummary{
			Stage: sp.Stage.String(), StartNS: sp.Start, DurNS: sp.Dur, Ops: sp.Ops,
		})
	}
	return s
}

// Recent returns up to n of the most recent finished traces, newest first.
// Nil-safe.
func (t *Tracer) Recent(n int) []TxSummary {
	if t == nil || n <= 0 {
		return nil
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	if n > len(t.ring) {
		n = len(t.ring)
	}
	var out []TxSummary
	for i := 1; i <= n; i++ {
		tt := t.ring[((t.ringNext-i)%len(t.ring)+len(t.ring))%len(t.ring)]
		if tt == nil {
			break
		}
		out = append(out, tt.Summary())
	}
	return out
}

// RecentCount returns how many traces FinishTx has published. Nil-safe.
func (t *Tracer) RecentCount() uint64 {
	if t == nil {
		return 0
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	return t.ringTotal
}

// Slow returns the slow-transaction log, newest first. Nil-safe.
func (t *Tracer) Slow() []TxSummary {
	if t == nil {
		return nil
	}
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	var out []TxSummary
	for i := 1; i <= len(t.slow); i++ {
		tt := t.slow[((t.slowNext-i)%len(t.slow)+len(t.slow))%len(t.slow)]
		if tt == nil {
			break
		}
		out = append(out, tt.Summary())
	}
	return out
}
