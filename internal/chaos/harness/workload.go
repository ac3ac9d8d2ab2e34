package harness

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/core"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/wire"
)

// policy is what a plan changes about the one workload. The zero value is
// the plain loop: one attempt per transaction, no deadline, every worker
// pinned to its node.
type policy struct {
	// budget is each transaction's deadline, through Begin(iso, budget); > 0 also
	// backs off between attempts, reads no commit back and turns the floors on.
	budget time.Duration
	tries  int // attempts a logical transaction gets while its error IsRetryable (0 means 1)
	// cycles graceful drain/rejoin cycles of the last node run beside the workers;
	// > 0 also reroutes a refused Begin and turns the elasticity rules on.
	cycles int
}

const (
	// grace is the slack past the budget for work a transaction finishes
	// after its last deadline checkpoint (commit publication, rollback).
	grace     = 600 * time.Millisecond
	drainGap  = 30 * time.Millisecond // load runs this long before each drain
	rejoinGap = 20 * time.Millisecond // the slot sits drained this long before reuse
)

// failure is one failed attempt; final marks the one that ended its logical
// transaction (out of tries, or not retryable).
type failure struct {
	err   error
	final bool
}

// nodeCheck is what the verification reads found on one node.
type nodeCheck struct {
	node                    int
	down                    bool  // absent or not live
	beginErr                error // the verify transaction did not open
	lost, wrong, resurfaced int
	readErrs                []error // reads that failed with anything but ErrNotFound
}

// observations is everything a run recorded; verdict judges it without
// looking at the cluster again.
type observations struct {
	committed  map[string]string
	rolledBack []string
	csns       []uint64 // commit timestamps, from TxStatus
	failures   []failure
	lats       []time.Duration // wall time per logical transaction, retries included
	overruns   int             // attempts that outlived budget+grace
	worstOver  time.Duration
	rerouted   int
	elapsed    time.Duration // the workload's wall time

	// The drain/rejoin orchestrator's ledger.
	drains, rejoins int
	epochs          []uint64 // topology epoch around each transition
	orchErrs        []error

	// The cluster's counters before the faults and after the run.
	epoch0, pmfsEpoch0 uint64
	stats              core.ClusterStats
	nodes              []nodeCheck
}

type run struct {
	Spec
	c   *core.Cluster
	sp  uint32
	mu  sync.Mutex // guards what the workers share of obs
	obs *observations
}

// workload runs one worker per node, and the plan's orchestrator, to the end.
func (r *run) workload() {
	var wg sync.WaitGroup
	if r.cycles > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); r.churn() }()
	}
	for ni := 1; ni <= r.Nodes; ni++ {
		wg.Add(1)
		go func(ni int) { defer wg.Done(); r.worker(ni) }(ni)
	}
	wg.Wait()
}

// worker is THE workload: Ops logical transactions begun on node ni — two
// committed upserts, each read back through the next node, for every insert
// that is rolled back. Keys are disjoint per worker (shared B-tree pages
// still exercise Lock and Buffer Fusion across nodes), so an error that is
// not IsRetryable is never contention: it is a fault the retry layer let by.
func (r *run) worker(ni int) {
	o, home := r.obs, ni
	for i := 0; i < r.Ops; i++ {
		salt := ni*7919 + i*104729
		key, val := []byte(fmt.Sprintf("n%d-k%05d", ni, i)), fmt.Sprintf("v%d-%d", ni, i)
		if i%3 == 2 {
			key = append([]byte("rb-"), key...)
			if r.transact(&home, salt, func(_ wire.Backend, tx wire.Tx) error {
				if err := tx.Insert(r.sp, key, []byte("junk")); err != nil {
					return err
				}
				return tx.Rollback()
			}) {
				r.mu.Lock()
				o.rolledBack = append(o.rolledBack, string(key))
				r.mu.Unlock()
			}
			continue
		}
		if !r.transact(&home, salt, func(be wire.Backend, tx wire.Tx) error {
			if err := tx.Upsert(r.sp, key, []byte(val)); err != nil {
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
			g := tx.GTrxID()
			out, cts, err := be.TxStatus(g)
			r.mu.Lock()
			defer r.mu.Unlock()
			o.committed[string(key)] = val
			o.csns = append(o.csns, cts)
			if err != nil || out != wire.TxStatusCommitted {
				o.failures = append(o.failures, failure{fmt.Errorf("acked commit %v resolves to outcome %d: %v", g, out, err), true})
			}
			return nil
		}) || r.budget > 0 {
			// The floors are over writes: read back through the crawling node, the
			// commits quadruple its traffic and cost it its lease in 2 runs of 41.
			continue
		}
		peer := ni%r.Nodes + 1
		r.transact(&peer, salt, func(_ wire.Backend, tx wire.Tx) error {
			if _, err := tx.Get(r.sp, key); err != nil && !errors.Is(err, common.ErrNotFound) {
				return err
			}
			return tx.Commit()
		})
	}
}

// transact runs body as one logical transaction beginning on node *at: up to
// tries attempts while the error is retryable, each under a fresh budget. It
// records every failed attempt and reports whether one succeeded.
func (r *run) transact(at *int, salt int, body func(wire.Backend, wire.Tx) error) (ok bool) {
	o, opStart := r.obs, time.Now()
	for try, tries := 0, max(r.tries, 1); try < tries; try++ {
		if try > 0 && r.budget > 0 {
			// Exponential backoff; the jitter is seeded by the (node, op, try) triple.
			time.Sleep(time.Millisecond<<min(try-1, 4) + time.Duration((salt+try*1299721)%1000)*time.Microsecond)
		}
		start := time.Now()
		err := r.attempt(at, body)
		over := time.Since(start) - r.budget
		final := err != errRerouted && (try+1 == tries || !common.IsRetryable(err))
		r.mu.Lock()
		if r.budget > 0 && over > 0 {
			o.worstOver = max(o.worstOver, over)
			if over > grace {
				o.overruns++
			}
		}
		if err == errRerouted {
			o.rerouted++
		} else if err != nil {
			o.failures = append(o.failures, failure{err, final})
		}
		r.mu.Unlock()
		if ok = err == nil; ok || final {
			break
		}
	}
	r.mu.Lock()
	o.lats = append(o.lats, time.Since(opStart))
	r.mu.Unlock()
	return ok
}

// errRerouted: the node refused admission and the plan routes around it.
var errRerouted = errors.New("rerouted to the next primary")

// attempt runs body in one transaction on node *at, resolved every time: a
// kill or a drain removes it from the cluster map, a rejoin reuses its id.
func (r *run) attempt(at *int, body func(wire.Backend, wire.Tx) error) error {
	var be *netsrv.Backend
	var tx wire.Tx
	n := r.c.Node(*at)
	err := fmt.Errorf("chaos: node %d: %w", *at, common.ErrNodeDown)
	if n != nil {
		be = netsrv.New(r.c, n)
		tx, err = be.Begin(0, r.budget)
	}
	if r.cycles > 0 && (n == nil || errors.Is(err, common.ErrDraining)) {
		// The admission refusal IS the drain protocol: route the transaction
		// to another primary, abort nothing.
		*at = *at%r.Nodes + 1
		return errRerouted
	}
	if err == nil {
		if err = body(be, tx); err != nil {
			_ = tx.Rollback()
		}
	}
	return err
}

// churn is the elastic orchestrator: it gracefully drains the last node and
// rejoins it, cycles times. Its ledger is its own until the workload ends.
func (r *run) churn() {
	o := r.obs
	sample := func() {
		if t, err := r.c.Topology(); err == nil {
			o.epochs = append(o.epochs, t.Epoch)
		}
	}
	for cy := 0; cy < r.cycles; cy++ {
		time.Sleep(drainGap)
		sample()
		if err := r.c.DrainNode(common.NodeID(r.Nodes)); err != nil {
			o.orchErrs = append(o.orchErrs, fmt.Errorf("cycle %d drain: %w", cy, err))
			return
		}
		o.drains++
		sample()
		time.Sleep(rejoinGap)
		if _, err := r.c.AddNode(); err != nil {
			o.orchErrs = append(o.orchErrs, fmt.Errorf("cycle %d rejoin: %w", cy, err))
			return
		}
		o.rejoins++
		sample()
	}
}

// verifyReads reads every committed and every rolled-back key back through
// each node, on a quiet fabric.
func (r *run) verifyReads() (out []nodeCheck) {
	for ni := 1; ni <= r.Nodes; ni++ {
		nc := nodeCheck{node: ni}
		n := r.c.Node(ni)
		var tx wire.Tx
		if nc.down = n == nil || !n.Live(); !nc.down {
			tx, nc.beginErr = netsrv.New(r.c, n).Begin(0, 0)
		}
		if tx != nil {
			for key, want := range r.obs.committed {
				got, err := tx.Get(r.sp, []byte(key))
				switch {
				case errors.Is(err, common.ErrNotFound):
					nc.lost++
				case err != nil:
					nc.readErrs = append(nc.readErrs, err)
				case string(got) != want:
					nc.wrong++
				}
			}
			for _, key := range r.obs.rolledBack {
				switch _, err := tx.Get(r.sp, []byte(key)); {
				case err == nil:
					nc.resurfaced++
				case !errors.Is(err, common.ErrNotFound):
					nc.readErrs = append(nc.readErrs, err)
				}
			}
			_ = tx.Commit()
		}
		out = append(out, nc)
	}
	return out
}
