// Package workload provides the benchmark workloads of §5.1 — SysBench
// (with the Taurus-MM shared-tables scheme), TPC-C, TATP and the Alibaba
// production mix — over an engine-neutral driver interface so the same
// generators run against PolarDB-MP and every baseline.
package workload

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
	"polardbmp/internal/wire"
)

// DB is the engine-neutral surface a workload drives, in the session
// protocol's own types: netsrv.DB (in-process cluster), Remote (deployed
// cluster) and the two baselines implement it, and every transaction any of
// them hands out is a wire.Tx.
type DB interface {
	// NodeCount returns the number of live primaries.
	NodeCount() int
	// Begin starts a transaction on the i-th (0-based) primary.
	Begin(node int) (wire.Tx, error)
	// CreateTable creates (or opens) a named table and returns its space id.
	CreateTable(name string) (uint32, error)
}

// Remote is a deployed cluster as a DB: one session client per primary (or
// per gateway — the gateway then picks the primary).
type Remote []*wire.Client

// NodeCount implements DB.
func (r Remote) NodeCount() int { return len(r) }

// CreateTable implements DB.
func (r Remote) CreateTable(name string) (uint32, error) { return r[0].CreateSpace(name) }

// Begin implements DB.
func (r Remote) Begin(node int) (wire.Tx, error) {
	if node < 0 || node >= len(r) {
		return nil, fmt.Errorf("workload: no session for node %d: %w", node+1, common.ErrNodeDown)
	}
	return wire.ClientBackend{Client: r[node]}.Begin(0, 0)
}

// Runner executes a workload's transaction mix against a DB.
type Runner struct {
	// Threads per node.
	Threads int
	// Duration of the measured run.
	Duration time.Duration
	// Warmup run before measuring (optional).
	Warmup time.Duration
	// MaxRetries bounds per-transaction retries on retryable errors.
	MaxRetries int
	// Timeline, when non-nil, receives per-interval commit counts.
	Timeline *metrics.Timeline
	// OnError receives non-retryable errors (optional).
	OnError func(error)
}

// TxFunc runs one transaction attempt on the given node using rng-free
// thread-local state owned by the generator.
type TxFunc func(db DB, node int) error

// Pacer injects a per-statement service-time pause (scaled-time simulation
// support; see the figure harness). The zero value is free.
//
// Pacing is deadline-based per transaction: each statement sleeps to an
// absolute schedule (begin + n×StatementDelay) rather than for a relative
// StatementDelay. A relative sleep under load oversleeps by the scheduler's
// wake-up latency, and over a dozen statements that drift accumulates into
// milliseconds of unmodeled service time; sleeping to the schedule credits
// one statement's oversleep against the next, so a transaction's injected
// service time stays at statements×StatementDelay as the model intends.
type Pacer struct {
	// StatementDelay is the per-statement service time.
	StatementDelay time.Duration
}

// begin starts one transaction's statement schedule.
func (p Pacer) begin() paceState {
	if p.StatementDelay <= 0 {
		return paceState{}
	}
	return paceState{deadline: time.Now(), delay: p.StatementDelay}
}

// paceState is a single transaction's pacing schedule (not concurrency-safe;
// one per transaction attempt).
type paceState struct {
	deadline time.Time
	delay    time.Duration
}

// pace charges one statement's service time, sleeping only up to the
// schedule. Past-due deadlines (accumulated oversleep) cost nothing.
func (ps *paceState) pace() {
	if ps.delay <= 0 {
		return
	}
	ps.deadline = ps.deadline.Add(ps.delay)
	if d := time.Until(ps.deadline); d > 0 {
		time.Sleep(d)
	}
}

// Result is a workload run's outcome. Aborts counts every aborted attempt
// (deadlocks, OCC conflicts, lock timeouts), including ones later retried
// successfully.
type Result struct {
	Commits int64
	Aborts  int64
	Errors  int64
	Elapsed time.Duration
	Latency *metrics.Histogram
}

// TPS returns committed transactions per second.
func (r Result) TPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Commits) / r.Elapsed.Seconds()
}

// Run drives nextTx (per-thread transaction factory) across all nodes and
// threads for the configured duration.
func (r Runner) Run(db DB, nextTx func(node, thread int) TxFunc) Result {
	if r.Threads <= 0 {
		r.Threads = 1
	}
	if r.MaxRetries <= 0 {
		r.MaxRetries = 64
	}
	nodes := db.NodeCount()

	run := func(d time.Duration, measured bool) Result {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		var commits, aborts, errs atomic.Int64
		lat := &metrics.Histogram{}
		var wg sync.WaitGroup
		for node := 0; node < nodes; node++ {
			for th := 0; th < r.Threads; th++ {
				wg.Add(1)
				go func(node, th int) {
					defer wg.Done()
					txf := nextTx(node, th)
					for ctx.Err() == nil {
						start := time.Now()
						err, retries := r.runOne(db, node, txf)
						aborts.Add(retries)
						switch {
						case err == nil:
							commits.Add(1)
							if measured {
								lat.Observe(time.Since(start))
								if r.Timeline != nil {
									r.Timeline.Tick(1)
								}
							}
						case common.IsRetryable(err):
							aborts.Add(1)
						default:
							errs.Add(1)
							if r.OnError != nil {
								r.OnError(err)
							}
						}
					}
				}(node, th)
			}
		}
		start := time.Now()
		wg.Wait()
		return Result{
			Commits: commits.Load(),
			Aborts:  aborts.Load(),
			Errors:  errs.Load(),
			Elapsed: time.Since(start),
			Latency: lat,
		}
	}

	if r.Warmup > 0 {
		run(r.Warmup, false)
	}
	return run(r.Duration, true)
}

// runOne executes one logical transaction with bounded retries on
// retryable failures (deadlock / OCC conflict / lock timeout), the way the
// paper describes applications handling Aurora-MM-style conflict errors.
// It returns the final error and the number of aborted attempts.
func (r Runner) runOne(db DB, node int, txf TxFunc) (error, int64) {
	var err error
	for attempt := 0; attempt <= r.MaxRetries; attempt++ {
		err = txf(db, node)
		if err == nil || !common.IsRetryable(err) {
			return err, int64(attempt)
		}
	}
	return err, int64(r.MaxRetries)
}
