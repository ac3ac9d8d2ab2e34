// Package baseline implements Figure 13's comparison system (§5.4) as a
// behavioural model sharing this repository's workload and latency
// substrates (DESIGN.md substitution S7): Sharded, a shared-nothing 2PC
// engine (TiDB/CockroachDB/OceanBase-like) with hash-partitioned data and
// partitioned global secondary indexes, where cross-partition transactions
// pay two-phase commit.
package baseline

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// ShardedLatency configures the shared-nothing baseline's injected costs.
type ShardedLatency struct {
	// RPC is one cross-partition message (request or response leg pair).
	RPC time.Duration
	// LogSync is one participant's durable log force.
	LogSync time.Duration
}

// DefaultShardedLatency mirrors a fast datacenter network + log store.
func DefaultShardedLatency() ShardedLatency {
	return ShardedLatency{
		RPC:     60 * time.Microsecond,
		LogSync: 30 * time.Microsecond,
	}
}

// Sharded is the shared-nothing 2PC engine (§5.4): data hash-partitioned
// across nodes, per-partition 2PL row locks, one-phase commit for
// single-partition transactions and two-phase commit otherwise — including
// for every global secondary index update, which is the effect Figure 13
// measures.
type Sharded struct {
	nodes   int
	latency ShardedLatency

	mu     sync.Mutex
	tables map[string]uint32
	byID   []*shardedTable // append-only; a table's space id is its index

	// TwoPhaseCommits / OnePhaseCommits split the commit traffic.
	TwoPhaseCommits int64
	OnePhaseCommits int64
}

type shardedTable struct {
	name  string
	parts []*partition
}

type partition struct {
	mu    sync.Mutex
	rows  map[string][]byte
	locks map[string]uint64 // key -> owning tx id
}

func lsleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// NewSharded builds an n-node shared-nothing cluster.
func NewSharded(n int, latency ShardedLatency) *Sharded {
	return &Sharded{nodes: n, latency: latency, tables: make(map[string]uint32)}
}

// NodeCount implements workload.DB.
func (s *Sharded) NodeCount() int { return s.nodes }

// CreateTable implements workload.DB; each table (including each secondary
// index, which callers model as its own table) is partitioned over all
// nodes.
func (s *Sharded) CreateTable(name string) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.tables[name]
	if !ok {
		t := &shardedTable{name: name}
		for i := 0; i < s.nodes; i++ {
			t.parts = append(t.parts, &partition{
				rows:  make(map[string][]byte),
				locks: make(map[string]uint64),
			})
		}
		id = uint32(len(s.byID))
		s.byID = append(s.byID, t)
		s.tables[name] = id
	}
	return id, nil
}

func (s *Sharded) partOf(key []byte) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32()) % s.nodes
}

var shardedTxSeq uint64
var shardedTxSeqMu sync.Mutex

func nextShardedTx() uint64 {
	shardedTxSeqMu.Lock()
	defer shardedTxSeqMu.Unlock()
	shardedTxSeq++
	return shardedTxSeq
}

// Begin implements workload.DB; node is the coordinator.
func (s *Sharded) Begin(node int) (wire.Tx, error) {
	if node < 0 || node >= s.nodes {
		return nil, fmt.Errorf("sharded: node %d out of range", node)
	}
	s.mu.Lock()
	tabs := s.byID
	s.mu.Unlock()
	return &shardedTx{
		db:     s,
		tabs:   tabs,
		node:   node,
		id:     nextShardedTx(),
		writes: make(map[*shardedTable]map[string]shardedWrite),
		locked: make(map[lockKey]bool),
	}, nil
}

type shardedWrite struct {
	val     []byte
	deleted bool
	insert  bool
}

type lockKey struct {
	t   *shardedTable
	p   int
	key string
}

type shardedTx struct {
	db     *Sharded
	tabs   []*shardedTable // the tables that existed at Begin, by space id
	node   int
	id     uint64
	writes map[*shardedTable]map[string]shardedWrite
	locked map[lockKey]bool
	done   bool
}

// chargeHop charges a cross-partition RPC when the partition is remote.
func (t *shardedTx) chargeHop(part int) {
	if part != t.node {
		lsleep(t.db.latency.RPC)
	}
}

// lockRow acquires the row lock at the owning partition (execution-time 2PL
// with no-wait: a held lock aborts the requester, the common distributed-
// deadlock avoidance policy).
func (t *shardedTx) lockRow(tab *shardedTable, part int, key string) error {
	lk := lockKey{tab, part, key}
	if t.locked[lk] {
		return nil
	}
	p := tab.parts[part]
	p.mu.Lock()
	owner, held := p.locks[key]
	if held && owner != t.id {
		p.mu.Unlock()
		return fmt.Errorf("sharded: row locked: %w", common.ErrWriteConflict)
	}
	p.locks[key] = t.id
	p.mu.Unlock()
	t.locked[lk] = true
	return nil
}

func (t *shardedTx) Get(space uint32, key []byte) ([]byte, error) {
	if t.done {
		return nil, common.ErrTxDone
	}
	st := t.tabs[space]
	part := t.db.partOf(key)
	t.chargeHop(part)
	if w, ok := t.writes[st][string(key)]; ok {
		if w.deleted {
			return nil, fmt.Errorf("sharded: %w", common.ErrNotFound)
		}
		return w.val, nil
	}
	p := st.parts[part]
	p.mu.Lock()
	v, ok := p.rows[string(key)]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sharded: %w", common.ErrNotFound)
	}
	return append([]byte(nil), v...), nil
}

func (t *shardedTx) GetForUpdate(space uint32, key []byte) ([]byte, error) {
	st := t.tabs[space]
	part := t.db.partOf(key)
	t.chargeHop(part)
	if err := t.lockRow(st, part, string(key)); err != nil {
		return nil, err
	}
	return t.Get(space, key)
}

func (t *shardedTx) stage(space uint32, key, val []byte, deleted, insert bool) error {
	if t.done {
		return common.ErrTxDone
	}
	st := t.tabs[space]
	part := t.db.partOf(key)
	t.chargeHop(part)
	if err := t.lockRow(st, part, string(key)); err != nil {
		return err
	}
	m := t.writes[st]
	if m == nil {
		m = make(map[string]shardedWrite)
		t.writes[st] = m
	}
	var cp []byte
	if val != nil {
		cp = append([]byte(nil), val...)
	}
	m[string(key)] = shardedWrite{val: cp, deleted: deleted, insert: insert}
	return nil
}

func (t *shardedTx) exists(space uint32, key []byte) bool {
	_, err := t.Get(space, key)
	return err == nil
}

func (t *shardedTx) Insert(space uint32, key, value []byte) error {
	if t.exists(space, key) {
		return fmt.Errorf("sharded: %w", common.ErrKeyExists)
	}
	return t.stage(space, key, value, false, true)
}

func (t *shardedTx) Update(space uint32, key, value []byte) error {
	if !t.exists(space, key) {
		return fmt.Errorf("sharded: %w", common.ErrNotFound)
	}
	return t.stage(space, key, value, false, false)
}

// GTrxID completes wire.Tx; a baseline transaction is never served over a
// session, so it has no global id.
func (t *shardedTx) GTrxID() common.GTrxID { return common.GTrxID{} }

// Upsert completes wire.Tx; no generator run against the baselines calls it.
func (t *shardedTx) Upsert(space uint32, key, value []byte) error {
	return t.stage(space, key, value, false, !t.exists(space, key))
}

func (t *shardedTx) Delete(space uint32, key []byte) error {
	if !t.exists(space, key) {
		return fmt.Errorf("sharded: %w", common.ErrNotFound)
	}
	return t.stage(space, key, nil, true, false)
}

// Scan gathers from every partition (scatter-gather).
func (t *shardedTx) Scan(space uint32, from, to []byte, limit int) ([]wire.KV, error) {
	if t.done {
		return nil, common.ErrTxDone
	}
	st := t.tabs[space]
	var out []wire.KV
	for i, p := range st.parts {
		t.chargeHop(i)
		p.mu.Lock()
		for k, v := range p.rows {
			if (from == nil || k >= string(from)) && (to == nil || k < string(to)) {
				out = append(out, wire.KV{Key: []byte(k), Value: append([]byte(nil), v...)})
			}
		}
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return string(out[i].Key) < string(out[j].Key) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// Commit applies the staged writes: single-participant local transactions
// commit with one log force; anything else runs two-phase commit with a
// prepare round (RPC + log force per participant) and a commit round.
func (t *shardedTx) Commit() error {
	if t.done {
		return common.ErrTxDone
	}
	t.done = true
	defer t.unlockAll()
	if len(t.writes) == 0 {
		return nil
	}
	// Which partitions participate?
	parts := map[int]bool{}
	for st, m := range t.writes {
		_ = st
		for key := range m {
			parts[t.db.partOf([]byte(key))] = true
		}
	}
	if len(parts) == 1 {
		// One-phase commit: a single participant commits with one log
		// force (plus the routing hop if it is remote), the standard
		// single-shard optimization every sharded system implements.
		for p := range parts {
			t.chargeHop(p)
		}
		lsleep(t.db.latency.LogSync)
		t.apply()
		t.db.mu.Lock()
		t.db.OnePhaseCommits++
		t.db.mu.Unlock()
		return nil
	}
	// Two-phase commit: prepare round (parallel in real systems; charge
	// one RPC + the slowest participant's log force per round, plus a
	// per-extra-participant overhead for message fan-out).
	n := len(parts)
	lsleep(t.db.latency.RPC + t.db.latency.LogSync) // prepare round
	lsleep(time.Duration(n-1) * t.db.latency.RPC / 2)
	lsleep(t.db.latency.LogSync)                    // coordinator decision record
	lsleep(t.db.latency.RPC + t.db.latency.LogSync) // commit round
	t.apply()
	t.db.mu.Lock()
	t.db.TwoPhaseCommits++
	t.db.mu.Unlock()
	return nil
}

func (t *shardedTx) apply() {
	for st, m := range t.writes {
		for key, w := range m {
			p := st.parts[t.db.partOf([]byte(key))]
			p.mu.Lock()
			if w.deleted {
				delete(p.rows, key)
			} else {
				p.rows[key] = w.val
			}
			p.mu.Unlock()
		}
	}
}

func (t *shardedTx) unlockAll() {
	for lk := range t.locked {
		p := lk.t.parts[lk.p]
		p.mu.Lock()
		if p.locks[lk.key] == t.id {
			delete(p.locks, lk.key)
		}
		p.mu.Unlock()
	}
}

func (t *shardedTx) Rollback() error {
	if t.done {
		return common.ErrTxDone
	}
	t.done = true
	t.unlockAll()
	return nil
}
