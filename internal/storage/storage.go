// Package storage simulates the disaggregated shared storage layer
// (PolarStore/PolarFS, §3): a page store and per-node append-only log
// streams, equally accessible from every primary node and surviving any
// node crash (DESIGN.md substitution S2).
//
// I/O latency is injected so that the storage-vs-shared-memory gap the
// Buffer Fusion design exploits (§4.2) is visible in benchmarks: a DBP read
// costs a fabric verb (sub-µs here, µs-scale in production) while a storage
// page read costs ~100µs.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
)

// Latency configures injected I/O delays. Zero values inject nothing.
type Latency struct {
	PageRead  time.Duration
	PageWrite time.Duration
	LogAppend time.Duration // charged per Sync batch, not per record
	LogRead   time.Duration
}

// DefaultLatency models a fast cloud block store: ~100µs reads, slightly
// cheaper writes (write-back caching on the store side), cheap log appends
// (3-replica append-optimized streams, per PolarFS).
func DefaultLatency() Latency {
	return Latency{
		PageRead:  100 * time.Microsecond,
		PageWrite: 80 * time.Microsecond,
		LogAppend: 30 * time.Microsecond,
		LogRead:   100 * time.Microsecond,
	}
}

func (l Latency) sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Stats counts storage operations.
type Stats struct {
	PageReads  metrics.Counter
	PageWrites metrics.Counter
	LogSyncs   metrics.Counter
	LogReads   metrics.Counter
}

// Store is the shared disaggregated store: pages + log streams + a small
// metadata area for cluster bootstrap state. It is safe for concurrent use
// and is never "crashed" in tests — only compute nodes crash; a full-cluster
// crash is simulated by discarding all node and PMFS state while keeping
// the Store.
type Store struct {
	latency Latency
	stats   Stats
	// inj holds a common.FaultInjector consulted before I/O entry points
	// (nil function value when injection is off).
	inj atomic.Value
	// persist, when set, mirrors durable state into a directory.
	persist *persister

	mu       sync.RWMutex
	pages    map[common.PageID][]byte
	nextPage uint64
	logs     map[common.NodeID]*logStream
	meta     map[string][]byte
}

// New creates an empty store.
func New(latency Latency) *Store {
	return &Store{
		latency:  latency,
		pages:    make(map[common.PageID][]byte),
		nextPage: uint64(common.InvalidPageID) + 1,
		logs:     make(map[common.NodeID]*logStream),
		meta:     make(map[string][]byte),
	}
}

// Stats exposes the store's operation counters.
func (s *Store) Stats() *Stats { return &s.stats }

// SetInjector installs (or, with nil, removes) a fault injector consulted
// before page and log I/O. Log appends and syncs honor only injected delays
// (a stalled-storage mode): PolarFS's replicated append does not fail, it
// stalls, and LogAppend/LogSync have no error path by design.
func (s *Store) SetInjector(inj common.FaultInjector) { s.inj.Store(inj) }

// inject consults the installed injector. src names the stream owner for
// log ops and AnyNode for page ops; failable reports whether the entry
// point has an error path (otherwise Err directives are ignored).
func (s *Store) inject(class string, src common.NodeID, name string, n int, failable bool) error {
	v := s.inj.Load()
	if v == nil {
		return nil
	}
	inj, _ := v.(common.FaultInjector)
	if inj == nil {
		return nil
	}
	d := inj(common.FaultOp{
		Layer: common.FaultLayerStorage, Class: class,
		Src: src, Dst: common.StorageNode, Name: name, Len: n,
	})
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	if d.Err != nil && failable {
		return fmt.Errorf("storage: %s %q: %w", class, name, d.Err)
	}
	return nil
}

// AllocPage allocates a fresh cluster-unique page id.
func (s *Store) AllocPage() common.PageID {
	s.mu.Lock()
	id := common.PageID(s.nextPage)
	s.nextPage++
	next := s.nextPage
	s.mu.Unlock()
	if s.persist != nil {
		s.persist.persistAlloc(next)
	}
	return id
}

// ReadPage returns a copy of the page image, or ErrNotFound.
func (s *Store) ReadPage(id common.PageID) ([]byte, error) {
	if err := s.inject(common.FaultPageRead, common.AnyNode, "page", 0, true); err != nil {
		return nil, err
	}
	s.latency.sleep(s.latency.PageRead)
	s.stats.PageReads.Inc()
	s.mu.RLock()
	img, ok := s.pages[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: page %d: %w", id, common.ErrNotFound)
	}
	out := make([]byte, len(img))
	copy(out, img)
	return out, nil
}

// WritePage durably stores a copy of the page image. Page writes are atomic
// (PolarFS guarantees this for aligned page I/O).
func (s *Store) WritePage(id common.PageID, img []byte) error {
	if err := s.inject(common.FaultPageWrite, common.AnyNode, "page", len(img), true); err != nil {
		return err
	}
	s.latency.sleep(s.latency.PageWrite)
	s.stats.PageWrites.Inc()
	cp := make([]byte, len(img))
	copy(cp, img)
	s.mu.Lock()
	s.pages[id] = cp
	if uint64(id) >= s.nextPage {
		s.nextPage = uint64(id) + 1
	}
	s.mu.Unlock()
	if s.persist != nil {
		s.persist.persistPage(id, cp)
	}
	return nil
}

// HasPage reports whether the page exists in the store.
func (s *Store) HasPage(id common.PageID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.pages[id]
	return ok
}

// PageIDs returns every stored page id (recovery sweep support).
func (s *Store) PageIDs() []common.PageID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]common.PageID, 0, len(s.pages))
	for id := range s.pages {
		out = append(out, id)
	}
	return out
}

// PageCount returns the number of stored pages.
func (s *Store) PageCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// PutMeta durably stores a small metadata blob (space directory, checkpoint
// table). Metadata writes share the page-write cost model.
func (s *Store) PutMeta(key string, val []byte) {
	s.latency.sleep(s.latency.PageWrite)
	cp := make([]byte, len(val))
	copy(cp, val)
	s.mu.Lock()
	s.meta[key] = cp
	s.mu.Unlock()
	if s.persist != nil {
		s.persist.persistMeta(key, cp)
	}
}

// GetMeta returns a copy of a metadata blob, or nil if absent.
func (s *Store) GetMeta(key string) []byte {
	s.mu.RLock()
	v := s.meta[key]
	s.mu.RUnlock()
	if v == nil {
		return nil
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp
}

// logStream is one node's append-only redo log file. The LSN of a record is
// its byte offset in the stream (§4.4). durable marks the synced prefix.
type logStream struct {
	mu      sync.Mutex
	buf     []byte
	durable int
	base    common.LSN // offset of buf[0] in the logical stream (after truncation)
	// fenced marks the stream read-only: a survivor has begun taking over
	// this node, so nothing the (possibly still running) owner appends may
	// become durable. Appends and syncs become no-ops until UnfenceLog.
	fenced bool
	// file mirrors the durable prefix to disk in a persistent store.
	file logFile
}

func (s *Store) stream(node common.NodeID) *logStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.logs[node]
	if ls == nil {
		ls = &logStream{}
		s.logs[node] = ls
	}
	return ls
}

// LogAppend appends data to node's log stream and returns the LSN (byte
// offset) at which it was placed. The data is not durable until LogSync.
func (s *Store) LogAppend(node common.NodeID, data []byte) common.LSN {
	ls := s.stream(node)
	ls.mu.Lock()
	lsn := ls.base + common.LSN(len(ls.buf))
	if !ls.fenced {
		ls.buf = append(ls.buf, data...)
	}
	ls.mu.Unlock()
	return lsn
}

// LogSync makes all appended data durable and returns the durable LSN (the
// offset just past the last durable byte).
func (s *Store) LogSync(node common.NodeID) common.LSN {
	_ = s.inject(common.FaultLogSync, node, "log", 0, false)
	s.latency.sleep(s.latency.LogAppend)
	s.stats.LogSyncs.Inc()
	ls := s.stream(node)
	ls.mu.Lock()
	if !ls.fenced {
		ls.durable = len(ls.buf)
	}
	lsn := ls.base + common.LSN(ls.durable)
	ls.mu.Unlock()
	if s.persist != nil {
		s.persist.persistLog(node, ls)
	}
	return lsn
}

// LogSyncBatch makes all appended data durable on every listed stream with a
// single injected latency charge, filling durables[i] with stream i's durable
// frontier. The streams are independent (per-node log files): a real store
// services their flushes concurrently, so one round of wall-clock latency
// covers all of them. With a fault injector installed it returns false
// without syncing anything — injected stalls must hit streams individually,
// so the caller falls back to per-stream LogSync.
func (s *Store) LogSyncBatch(nodes []common.NodeID, durables []common.LSN) bool {
	if v := s.inj.Load(); v != nil {
		if inj, _ := v.(common.FaultInjector); inj != nil {
			return false
		}
	}
	s.latency.sleep(s.latency.LogAppend)
	for i, n := range nodes {
		s.stats.LogSyncs.Inc()
		ls := s.stream(n)
		ls.mu.Lock()
		if !ls.fenced {
			ls.durable = len(ls.buf)
		}
		durables[i] = ls.base + common.LSN(ls.durable)
		ls.mu.Unlock()
		if s.persist != nil {
			s.persist.persistLog(n, ls)
		}
	}
	return true
}

// SyncLatency reports the configured per-round log flush latency. The commit
// pipeline consults it: rounds cheaper than scheduling noise aren't worth
// running speculatively.
func (s *Store) SyncLatency() time.Duration { return s.latency.LogAppend }

// LogEndLSN returns the append frontier of node's stream (the LSN the next
// append will land at), ahead of the durable frontier by the un-synced tail.
func (s *Store) LogEndLSN(node common.NodeID) common.LSN {
	ls := s.stream(node)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.base + common.LSN(len(ls.buf))
}

// LogDurableLSN returns the durable frontier of node's stream.
func (s *Store) LogDurableLSN(node common.NodeID) common.LSN {
	ls := s.stream(node)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.base + common.LSN(ls.durable)
}

// LogStartLSN returns the first retained LSN of node's stream (advanced by
// LogTruncate at checkpoints).
func (s *Store) LogStartLSN(node common.NodeID) common.LSN {
	ls := s.stream(node)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.base
}

// LogRead reads up to len(buf) durable bytes starting at lsn. It returns the
// number of bytes read; n == 0 means lsn is at (or past) the durable
// frontier. Reading truncated history is a bug and returns ErrCorrupt.
func (s *Store) LogRead(node common.NodeID, lsn common.LSN, buf []byte) (int, error) {
	if err := s.inject(common.FaultLogRead, node, "log", len(buf), true); err != nil {
		return 0, err
	}
	s.latency.sleep(s.latency.LogRead)
	s.stats.LogReads.Inc()
	ls := s.stream(node)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if lsn < ls.base {
		return 0, fmt.Errorf("storage: log read at %d below retained base %d: %w",
			lsn, ls.base, common.ErrCorrupt)
	}
	if lsn-ls.base >= common.LSN(ls.durable) { // compared as LSNs: one far past the end overflows an int
		return 0, nil
	}
	return copy(buf, ls.buf[lsn-ls.base:ls.durable]), nil
}

// LogCrashVolatile discards node's un-synced log tail, simulating the loss
// of the node's in-flight I/O at crash time.
func (s *Store) LogCrashVolatile(node common.NodeID) {
	ls := s.stream(node)
	ls.mu.Lock()
	ls.buf = ls.buf[:ls.durable]
	ls.mu.Unlock()
}

// FenceLog makes node's stream reject further appends and syncs. A survivor
// fences a dead node's stream before replaying it, so that even a zombie
// owner that is merely slow (not dead) cannot extend the log under the
// survivor's feet. Readers are unaffected.
func (s *Store) FenceLog(node common.NodeID) {
	ls := s.stream(node)
	ls.mu.Lock()
	ls.fenced = true
	ls.mu.Unlock()
}

// UnfenceLog re-opens node's stream for appends; called once takeover has
// replayed and truncated it, so a restarting incarnation writes cleanly.
func (s *Store) UnfenceLog(node common.NodeID) {
	ls := s.stream(node)
	ls.mu.Lock()
	ls.fenced = false
	ls.mu.Unlock()
}

// LogFenced reports whether node's stream is fenced.
func (s *Store) LogFenced(node common.NodeID) bool {
	ls := s.stream(node)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.fenced
}

// LogTruncate discards the stream prefix below lsn (checkpointing). It is a
// no-op if lsn is below the current base or beyond the durable frontier.
func (s *Store) LogTruncate(node common.NodeID, lsn common.LSN) {
	ls := s.stream(node)
	ls.mu.Lock()
	if lsn <= ls.base || lsn-ls.base > common.LSN(ls.durable) {
		ls.mu.Unlock()
		return
	}
	cut := int(lsn - ls.base)
	ls.buf = append([]byte(nil), ls.buf[cut:]...)
	ls.durable -= cut
	ls.base = lsn
	ls.mu.Unlock()
	if s.persist != nil {
		s.persist.persistTruncate(node, ls)
	}
}

// LogNodes lists every node id that has a log stream (used by full-cluster
// recovery to discover all log files).
func (s *Store) LogNodes() []common.NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]common.NodeID, 0, len(s.logs))
	for id := range s.logs {
		out = append(out, id)
	}
	return out
}
