package main

// The four workloads, their transactions, the loader and the correctness
// checks. Names and shapes are fixed: later issues cite them.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"polardbmp"
)

type topology int

const (
	topoGateway topology = iota // seed + satellite behind mpgateway
	topoDirect                  // seed + satellite, one session dials each
	topoLib                     // in-process polardbmp.Open, 2 nodes
)

const (
	sessions     = 2 // client sessions = nproc of the reference host
	readsPerTx   = 10
	padLen       = 112
	valueLen     = 8 + padLen
	initialCount = 1000
	loadBatch    = 500
	// Concurrent loader transactions per wire session. The in-process
	// workload loads with one per node: its table outgrows the LBP, where
	// two transactions on one node crash the engine (README, known issues).
	wireLoadStreams = 4
	maxRetries      = 3

	// lib_rw_cold's pools. The LBP is far smaller than the table. The DBP is
	// not: at the commit that added the benchmark a DBP eviction of a page
	// some node still holds dirty kills the process (README, known issues),
	// so the DBP has to hold the whole table.
	libLocalBufferPages  = 256
	libSharedBufferPages = 8192
)

type workloadSpec struct {
	Name     string
	Why      string
	Topo     topology
	ReadOnly bool // ro transactions (snapshot, no writes)
	// Tables of Rows rows each. With one table both sessions use it; with
	// two, session i uses only table i (0 % shared).
	Tables int
	Rows   int
	// SharedPct applies to single-table workloads: that share of a session's
	// transactions draws keys from the part of the table both sessions use,
	// the rest from a quarter only this session touches. 100 = whole table.
	SharedPct int
	// RateTPS is the open-loop arrival rate: about half of this host's
	// closed-loop tps at the commit that added the benchmark. Fixed.
	RateTPS float64
}

// workloads is the benchmark's fixed set. BENCHMARK.json repeats name and
// why; TestManifestMatchesWorkloads keeps the two in step.
var workloads = []workloadSpec{
	{
		Name: "gw_rw_shared", Topo: topoGateway, Tables: 1, Rows: 40000, SharedPct: 100, RateTPS: 170,
		Why: "full deployed stack, one 40k-row table written by both primaries (100% shared, fits the LBP): PLock negotiation, DBP transfer, socket fabric and the storage uplink do the work",
	},
	{
		Name: "gw_ro_point", Topo: topoGateway, ReadOnly: true, Tables: 1, Rows: 40000, SharedPct: 100, RateTPS: 450,
		Why: "same topology and table, read-only: 12 relayed round trips per transaction, so gateway relay and frame codec dominate while WAL, commit pipeline and X-PLocks idle",
	},
	{
		Name: "direct_rw_private", Topo: topoDirect, Tables: 2, Rows: 20000, RateTPS: 420,
		Why: "no gateway, each primary writes its own 20k-row table (0% shared): WAL append/sync, commit pipeline, TSO/pmfsrep and the satellite's storage uplink dominate",
	},
	{
		Name: "lib_rw_cold", Topo: topoLib, Tables: 1, Rows: 200000, SharedPct: 50, RateTPS: 1400,
		Why: "in-process, 200k rows (about 4.5k pages) against a 256-page LBP at 50% shared: the only workload larger than the node caches and the only one with no wire, gateway or sockets",
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workloadSpec) tableNames() []string {
	names := make([]string, w.Tables)
	for i := range names {
		names[i] = "bench" + strconv.Itoa(i)
	}
	return names
}

// rowKey is "k" + i as nine decimal digits; formatted by hand because the
// load generator's CPU is part of cpu_ms_per_tx.
func rowKey(i int) []byte {
	b := []byte("k000000000")
	for p := len(b) - 1; i > 0; p-- {
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return b
}

func rowValue(counter int64) []byte {
	v := make([]byte, valueLen)
	binary.LittleEndian.PutUint64(v, uint64(counter))
	for i := 8; i < valueLen; i++ {
		v[i] = 'p'
	}
	return v
}

// txPlan is one generated transaction: which keys it reads and, for rw,
// which two counters it moves delta between.
type txPlan struct {
	table  int
	reads  [readsPerTx]int
	k1, k2 int // k1 < k2
	delta  int64
}

// planTx draws the next transaction of session sess from its key stream.
func (w *workloadSpec) planTx(rng *rand.Rand, sess int) txPlan {
	p := txPlan{}
	lo, n := 0, w.Rows
	switch {
	case w.Tables > 1:
		p.table = sess
	case w.SharedPct < 100:
		// First half shared; the second half split into one private quarter
		// per session.
		if rng.Intn(100) < w.SharedPct {
			n = w.Rows / 2
		} else {
			n = w.Rows / 4
			lo = w.Rows/2 + sess*n
		}
	}
	for i := range p.reads {
		p.reads[i] = lo + rng.Intn(n)
	}
	p.k1 = lo + rng.Intn(n)
	p.k2 = lo + rng.Intn(n-1)
	if p.k2 >= p.k1 {
		p.k2++
	}
	if p.k1 > p.k2 {
		p.k1, p.k2 = p.k2, p.k1
	}
	p.delta = int64(rng.Intn(9) + 1)
	return p
}

// checkValue is the output check on every read: anything other than a
// loaded row is a wrong answer (and is never retried).
func checkValue(key, v []byte) error {
	if len(v) != valueLen {
		return fmt.Errorf("key %s: value of %d bytes, want %d", key, len(v), valueLen)
	}
	return nil
}

// attemptTx runs the plan once: begin, 10 point reads, and for rw two
// balanced read-modify-writes in key order, then commit.
func (w *workloadSpec) attemptTx(s dbSession, p *txPlan) error {
	tx, err := s.Begin(w.ReadOnly)
	if err != nil {
		return err
	}
	for _, k := range p.reads {
		key := rowKey(k)
		v, err := tx.Get(p.table, key)
		if err == nil {
			err = checkValue(key, v)
		}
		if err != nil {
			_ = tx.Rollback() // the attempt already failed; its error is the one reported
			return err
		}
	}
	if w.ReadOnly {
		return tx.Commit()
	}
	return writeAndCommit(tx, p)
}

// writeAndCommit is the write half of an rw transaction: lock both counters
// in key order, move delta from k1 to k2, commit. Rolls back on error.
func writeAndCommit(tx dbTx, p *txPlan) (err error) {
	defer func() {
		if err != nil {
			_ = tx.Rollback() // the attempt already failed; its error is the one reported
		}
	}()
	key1, key2 := rowKey(p.k1), rowKey(p.k2)
	v1, err := tx.GetForUpdate(p.table, key1)
	if err != nil {
		return err
	}
	v2, err := tx.GetForUpdate(p.table, key2)
	if err != nil {
		return err
	}
	if err := checkValue(key1, v1); err != nil {
		return err
	}
	if err := checkValue(key2, v2); err != nil {
		return err
	}
	c1 := int64(binary.LittleEndian.Uint64(v1))
	c2 := int64(binary.LittleEndian.Uint64(v2))
	if err := tx.Update(p.table, key1, rowValue(c1-p.delta)); err != nil {
		return err
	}
	if err := tx.Update(p.table, key2, rowValue(c2+p.delta)); err != nil {
		return err
	}
	return tx.Commit()
}

// runTx is one attempt in the issue's sense: the plan, retried at most
// maxRetries times while the error is retryable.
func (w *workloadSpec) runTx(s dbSession, p *txPlan) (retries int, err error) {
	for {
		err = w.attemptTx(s, p)
		if err == nil || retries == maxRetries || !polardbmp.IsRetryable(err) {
			return retries, err
		}
		retries++
	}
}

// loadTables inserts every row: half of the key space (or one whole private
// table) per session, each share cut into `streams` contiguous ranges loaded
// concurrently, which pipelines the round trips of a wire session.
func (w *workloadSpec) loadTables(ss []dbSession, streams int) error {
	errs := make(chan error, len(ss)*streams) // one send per loader goroutine
	for i, s := range ss {
		table, lo, hi := 0, i*w.Rows/len(ss), (i+1)*w.Rows/len(ss)
		if w.Tables > 1 {
			table, lo, hi = i, 0, w.Rows
		}
		for j := 0; j < streams; j++ {
			go func(s dbSession, from, to int) { errs <- loadRange(s, table, from, to) }(
				s, lo+j*(hi-lo)/streams, lo+(j+1)*(hi-lo)/streams)
		}
	}
	var first error
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("load: %w", err)
		}
	}
	return first
}

func loadRange(s dbSession, table, lo, hi int) error {
	val := rowValue(initialCount)
	for base := lo; base < hi; base += loadBatch {
		tx, err := s.Begin(false)
		if err != nil {
			return err
		}
		for i := base; i < base+loadBatch && i < hi; i++ {
			if err := tx.Insert(table, rowKey(i), val); err != nil {
				_ = tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// checkSums scans every table under snapshot isolation from session s and
// verifies row count and the conserved counter sum.
func (w *workloadSpec) checkSums(s dbSession, who string) error {
	for t := 0; t < w.Tables; t++ {
		tx, err := s.Begin(true)
		if err != nil {
			return fmt.Errorf("%s: sum check begin: %w", who, err)
		}
		rows, err := tx.Scan(t)
		if err != nil {
			_ = tx.Rollback()
			return fmt.Errorf("%s: sum check scan: %w", who, err)
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("%s: sum check commit: %w", who, err)
		}
		var sum int64
		for _, r := range rows {
			if err := checkValue(r.key, r.value); err != nil {
				return fmt.Errorf("%s: %w", who, err)
			}
			sum += int64(binary.LittleEndian.Uint64(r.value))
		}
		if want := int64(w.Rows) * initialCount; len(rows) != w.Rows || sum != want {
			return fmt.Errorf("%s: table %d holds %d rows summing to %d, want %d rows summing to %d",
				who, t, len(rows), sum, w.Rows, want)
		}
	}
	return nil
}
