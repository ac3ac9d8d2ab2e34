// Package baseline implements the comparison systems of §5.3 and §5.4 as
// behavioural models sharing this repository's workload and latency
// substrates (DESIGN.md substitution S7):
//
//   - OCCMM — Aurora-MM-like multi-master: shared storage, optimistic
//     concurrency control with page-granularity conflict detection; write
//     conflicts surface as retryable "deadlock errors" exactly as §2.3
//     describes.
//   - Sharded — shared-nothing 2PC (TiDB/CockroachDB/OceanBase-like):
//     hash-partitioned data and partitioned global secondary indexes;
//     cross-partition transactions pay two-phase commit.
//   - The Taurus-MM-like log-ship baseline is the real engine with
//     Config.StoragePageSync (page-store + log-replay synchronization).
package baseline

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// occBuckets is the default page-conflict granularity: keys hash into
// buckets that stand in for data pages; two transactions writing the same
// bucket concurrently conflict even when their rows differ, which is
// precisely why Aurora-MM aborts under shared write traffic (§2.3).
// OCCMM.Buckets tunes it per run: real 16KB pages hold on the order of a
// hundred sysbench rows, so benchmarks set rows/bucket accordingly.
const occBuckets = 1024

// OCCLatency configures the OCC baseline's injected costs.
type OCCLatency struct {
	// StorageRead is a cache-miss fetch from the page store.
	StorageRead time.Duration
	// VersionCheck is the cheap validity probe for cached rows.
	VersionCheck time.Duration
	// CommitRound is the storage round trip validating and applying a
	// write set (Aurora's quorum write).
	CommitRound time.Duration
}

// DefaultOCCLatency mirrors the shared-storage cost model.
func DefaultOCCLatency() OCCLatency {
	return OCCLatency{
		StorageRead:  100 * time.Microsecond,
		VersionCheck: 3 * time.Microsecond,
		CommitRound:  120 * time.Microsecond,
	}
}

func lsleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// OCCMM is the Aurora-MM-like engine.
type OCCMM struct {
	nodes   int
	latency OCCLatency
	// Buckets is the per-table page-conflict granularity (default
	// occBuckets). Set before CreateTable.
	Buckets int

	mu     sync.Mutex
	tables map[string]uint32
	byID   []*occTable // append-only; a table's space id is its index

	// Conflicts counts commit-time aborts (the "deadlock errors").
	Conflicts int64
	// Commits counts successful commits.
	Commits int64

	caches []*occCache
}

type occTable struct {
	name string
	mu   sync.RWMutex
	rows map[string][]byte
	// ver is the per-bucket ("page") version used for conflict detection.
	ver []uint64
}

// occCache is one node's buffer cache: row values tagged with the bucket
// version they were read at.
type occCache struct {
	mu   sync.Mutex
	rows map[string]occCached
}

type occCached struct {
	val []byte
	ver uint64
}

// NewOCCMM builds an n-node Aurora-MM-like cluster.
func NewOCCMM(n int, latency OCCLatency) *OCCMM {
	o := &OCCMM{nodes: n, latency: latency, tables: make(map[string]uint32)}
	for i := 0; i < n; i++ {
		o.caches = append(o.caches, &occCache{rows: make(map[string]occCached)})
	}
	return o
}

// NodeCount implements workload.DB.
func (o *OCCMM) NodeCount() int { return o.nodes }

// CreateTable implements workload.DB.
func (o *OCCMM) CreateTable(name string) (uint32, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	id, ok := o.tables[name]
	if !ok {
		buckets := o.Buckets
		if buckets <= 0 {
			buckets = occBuckets
		}
		id = uint32(len(o.byID))
		o.byID = append(o.byID, &occTable{name: name, rows: make(map[string][]byte), ver: make([]uint64, buckets)})
		o.tables[name] = id
	}
	return id, nil
}

func bucketOf(key []byte, buckets int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(buckets))
}

// Begin implements workload.DB.
func (o *OCCMM) Begin(node int) (wire.Tx, error) {
	if node < 0 || node >= o.nodes {
		return nil, fmt.Errorf("occmm: node %d out of range", node)
	}
	o.mu.Lock()
	tabs := o.byID
	o.mu.Unlock()
	return &occTx{db: o, tabs: tabs, node: node, writes: make(map[*occTable]map[string]occWrite)}, nil
}

type occWrite struct {
	val     []byte
	deleted bool
	baseVer uint64 // bucket version observed when the write was staged
	insert  bool
}

type occTx struct {
	db     *OCCMM
	tabs   []*occTable // the tables that existed at Begin, by space id
	node   int
	writes map[*occTable]map[string]occWrite
	done   bool
}

func (t *occTx) cacheKey(tab *occTable, key []byte) string {
	return tab.name + "\x00" + string(key)
}

// read fetches a row through the node's cache with version validation.
func (t *occTx) read(tab *occTable, key []byte) ([]byte, bool) {
	// Own staged write first.
	if w, ok := t.writes[tab][string(key)]; ok {
		if w.deleted {
			return nil, false
		}
		return w.val, true
	}
	cache := t.db.caches[t.node]
	b := bucketOf(key, len(tab.ver))
	ck := t.cacheKey(tab, key)

	cache.mu.Lock()
	cached, hit := cache.rows[ck]
	cache.mu.Unlock()

	lsleep(t.db.latency.VersionCheck)
	tab.mu.RLock()
	cur := tab.ver[b]
	tab.mu.RUnlock()
	if hit && cached.ver == cur {
		if cached.val == nil {
			return nil, false
		}
		return cached.val, true
	}
	// Miss or stale: storage fetch.
	lsleep(t.db.latency.StorageRead)
	tab.mu.RLock()
	val, ok := tab.rows[string(key)]
	ver := tab.ver[b]
	tab.mu.RUnlock()
	var cp []byte
	if ok {
		cp = append([]byte(nil), val...)
	}
	cache.mu.Lock()
	cache.rows[ck] = occCached{val: cp, ver: ver}
	cache.mu.Unlock()
	return cp, ok
}

func (t *occTx) stage(space uint32, key []byte, val []byte, deleted, insert bool) error {
	if t.done {
		return common.ErrTxDone
	}
	ot := t.tabs[space]
	m := t.writes[ot]
	if m == nil {
		m = make(map[string]occWrite)
		t.writes[ot] = m
	}
	b := bucketOf(key, len(ot.ver))
	ot.mu.RLock()
	base := ot.ver[b]
	ot.mu.RUnlock()
	var cp []byte
	if val != nil {
		cp = append([]byte(nil), val...)
	}
	m[string(key)] = occWrite{val: cp, deleted: deleted, baseVer: base, insert: insert}
	return nil
}

func (t *occTx) Get(space uint32, key []byte) ([]byte, error) {
	if t.done {
		return nil, common.ErrTxDone
	}
	val, ok := t.read(t.tabs[space], key)
	if !ok {
		return nil, fmt.Errorf("occmm: %w", common.ErrNotFound)
	}
	return val, nil
}

// GetForUpdate has no locking under OCC; it is a plain read (the conflict is
// detected at commit).
func (t *occTx) GetForUpdate(space uint32, key []byte) ([]byte, error) {
	val, err := t.Get(space, key)
	if err != nil {
		return nil, err
	}
	// Stage an identity write so the bucket participates in validation,
	// approximating first-updater-wins on the page.
	if err := t.stage(space, key, val, false, false); err != nil {
		return nil, err
	}
	return val, nil
}

func (t *occTx) Insert(space uint32, key, value []byte) error {
	if _, ok := t.read(t.tabs[space], key); ok {
		return fmt.Errorf("occmm: %w", common.ErrKeyExists)
	}
	return t.stage(space, key, value, false, true)
}

func (t *occTx) Update(space uint32, key, value []byte) error {
	if _, ok := t.read(t.tabs[space], key); !ok {
		return fmt.Errorf("occmm: %w", common.ErrNotFound)
	}
	return t.stage(space, key, value, false, false)
}

// Upsert completes wire.Tx; no generator run against the baselines calls it.
func (t *occTx) Upsert(space uint32, key, value []byte) error {
	_, ok := t.read(t.tabs[space], key)
	return t.stage(space, key, value, false, !ok)
}

func (t *occTx) Delete(space uint32, key []byte) error {
	if _, ok := t.read(t.tabs[space], key); !ok {
		return fmt.Errorf("occmm: %w", common.ErrNotFound)
	}
	return t.stage(space, key, nil, true, false)
}

// Scan reads directly from storage (scans bypass the cache in this model).
func (t *occTx) Scan(space uint32, from, to []byte, limit int) ([]wire.KV, error) {
	if t.done {
		return nil, common.ErrTxDone
	}
	lsleep(t.db.latency.StorageRead)
	ot := t.tabs[space]
	ot.mu.RLock()
	defer ot.mu.RUnlock()
	var out []wire.KV
	for k, v := range ot.rows {
		if (from == nil || k >= string(from)) && (to == nil || k < string(to)) {
			out = append(out, wire.KV{Key: []byte(k), Value: append([]byte(nil), v...)})
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out, nil
}

// Commit validates the write set at page (bucket) granularity and applies
// it atomically; any bucket written by a concurrent committer since it was
// staged aborts the transaction with a retryable conflict, the "deadlock
// error" Aurora-MM reports to applications (§2.3).
func (t *occTx) Commit() error {
	if t.done {
		return common.ErrTxDone
	}
	t.done = true
	if len(t.writes) == 0 {
		return nil
	}
	lsleep(t.db.latency.CommitRound)

	// Validate & apply under a global order (tables sorted by name) so
	// validation itself cannot deadlock.
	var tabs []*occTable
	for tab := range t.writes {
		tabs = append(tabs, tab)
	}
	for i := 0; i < len(tabs); i++ {
		for j := i + 1; j < len(tabs); j++ {
			if tabs[j].name < tabs[i].name {
				tabs[i], tabs[j] = tabs[j], tabs[i]
			}
		}
	}
	for _, tab := range tabs {
		tab.mu.Lock()
	}
	defer func() {
		for i := len(tabs) - 1; i >= 0; i-- {
			tabs[i].mu.Unlock()
		}
	}()
	for _, tab := range tabs {
		for key, w := range t.writes[tab] {
			if tab.ver[bucketOf([]byte(key), len(tab.ver))] != w.baseVer {
				t.db.mu.Lock()
				t.db.Conflicts++
				t.db.mu.Unlock()
				return fmt.Errorf("occmm: page conflict: %w", common.ErrWriteConflict)
			}
		}
	}
	for _, tab := range tabs {
		for key, w := range t.writes[tab] {
			tab.ver[bucketOf([]byte(key), len(tab.ver))]++
			if w.deleted {
				delete(tab.rows, key)
			} else {
				tab.rows[key] = w.val
			}
		}
	}
	t.db.mu.Lock()
	t.db.Commits++
	t.db.mu.Unlock()
	return nil
}

func (t *occTx) Rollback() error {
	if t.done {
		return common.ErrTxDone
	}
	t.done = true
	return nil
}
