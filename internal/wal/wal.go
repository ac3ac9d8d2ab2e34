// Package wal implements PolarDB-MP's write-ahead logging and the LLSN
// scheme of §4.4.
//
// Each node owns an append-only redo stream in shared storage; within a
// stream, the LSN is the byte offset of the record. Across streams, records
// carry a logical log sequence number (LLSN) drawn from a node-local counter
// that folds in the LLSN of every page the node reads; because a page moves
// between nodes only under an X PLock, and the page carries its last LLSN,
// all records for one page are LLSN-ordered in generation order while
// unrelated pages impose no global order.
//
// Recovery never sorts whole logs: the MergeReader reads a bounded chunk
// from each stream, computes LLSN_bound — the minimum, over non-exhausted
// streams, of the last LLSN read — and releases only records at or below the
// bound, exactly the batching policy §4.4 describes.
//
// Before-images are not needed as separate undo files: user mutations are
// version-prepends, so rolling back is removing the transaction's newest
// version (DESIGN.md substitution S4); compensation is logged as Rollback
// records.
package wal

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/storage"
	"polardbmp/internal/trace"
)

// RecordType discriminates redo record kinds.
type RecordType uint8

const (
	// RecInsert is the single user-mutation record: prepend a version
	// (possibly a tombstone) for Key on Page. Insert, update and delete
	// all reduce to it.
	RecInsert RecordType = iota + 1
	// RecPageImage carries a full page image; used for page creation and
	// structure modifications (splits/merges), which are physically
	// logged.
	RecPageImage
	// RecCommit marks Trx committed with CTS.
	RecCommit
	// RecAbort marks Trx aborted (all its versions already rolled back).
	RecAbort
	// RecRollback is a compensation record: the newest version of Key on
	// Page written by Trx was removed.
	RecRollback
)

// Record is one redo record.
type Record struct {
	Type RecordType
	Node common.NodeID
	LLSN common.LLSN
	LSN  common.LSN // byte offset in the node's stream; set by the reader/writer
	Trx  common.GTrxID

	// Page mutation fields (RecInsert / RecRollback / RecPageImage).
	Page    common.PageID
	Space   common.SpaceID
	Key     []byte
	Deleted bool
	Value   []byte
	Image   []byte // RecPageImage only

	CTS common.CSN // RecCommit only
}

// Marshal appends the record's wire form to b.
func (r *Record) Marshal(b []byte) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length placeholder
	b = append(b, byte(r.Type))
	b = binary.LittleEndian.AppendUint16(b, uint16(r.Node))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.LLSN))
	b = r.Trx.Marshal(b)
	switch r.Type {
	case RecInsert:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Page))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Space))
		b = appendBytes(b, r.Key)
		if r.Deleted {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendBytes(b, r.Value)
	case RecPageImage:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Page))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Space))
		b = appendBytes(b, r.Image)
	case RecCommit:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.CTS))
	case RecAbort:
		// no extra fields
	case RecRollback:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Page))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Space))
		b = appendBytes(b, r.Key)
	default:
		panic(fmt.Sprintf("wal: marshal of unknown record type %d", r.Type))
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start))
	return b
}

func appendBytes(b, v []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// unmarshalOne decodes the record at the front of b, returning it, the
// remainder, and the record's wire length.
func unmarshalOne(b []byte) (*Record, int, error) {
	if len(b) < 4 {
		return nil, 0, errIncomplete
	}
	total := int(binary.LittleEndian.Uint32(b))
	if total < 4 || total > len(b) {
		if total >= 4 {
			return nil, 0, errIncomplete
		}
		return nil, 0, fmt.Errorf("wal: bad record length %d: %w", total, common.ErrCorrupt)
	}
	body := b[4:total]
	r := &Record{}
	if len(body) < 1+2+8+common.GTrxIDSize {
		return nil, 0, fmt.Errorf("wal: truncated record header: %w", common.ErrCorrupt)
	}
	r.Type = RecordType(body[0])
	r.Node = common.NodeID(binary.LittleEndian.Uint16(body[1:]))
	r.LLSN = common.LLSN(binary.LittleEndian.Uint64(body[3:]))
	var err error
	r.Trx, body, err = common.UnmarshalGTrxID(body[11:])
	if err != nil {
		return nil, 0, err
	}
	switch r.Type {
	case RecInsert:
		if len(body) < 12 {
			return nil, 0, common.ErrCorrupt
		}
		r.Page = common.PageID(binary.LittleEndian.Uint64(body))
		r.Space = common.SpaceID(binary.LittleEndian.Uint32(body[8:]))
		if r.Key, body, err = readBytes(body[12:]); err != nil {
			return nil, 0, err
		}
		if len(body) < 1 || body[0] > 1 {
			return nil, 0, fmt.Errorf("wal: bad tombstone byte: %w", common.ErrCorrupt)
		}
		r.Deleted = body[0] == 1
		r.Value, body, err = readBytes(body[1:])
	case RecPageImage:
		if len(body) < 12 {
			return nil, 0, common.ErrCorrupt
		}
		r.Page = common.PageID(binary.LittleEndian.Uint64(body))
		r.Space = common.SpaceID(binary.LittleEndian.Uint32(body[8:]))
		r.Image, body, err = readBytes(body[12:])
	case RecCommit:
		if len(body) < 8 {
			return nil, 0, common.ErrCorrupt
		}
		r.CTS = common.CSN(binary.LittleEndian.Uint64(body))
		body = body[8:]
	case RecAbort:
	case RecRollback:
		if len(body) < 12 {
			return nil, 0, common.ErrCorrupt
		}
		r.Page = common.PageID(binary.LittleEndian.Uint64(body))
		r.Space = common.SpaceID(binary.LittleEndian.Uint32(body[8:]))
		r.Key, body, err = readBytes(body[12:])
	default:
		return nil, 0, fmt.Errorf("wal: unknown record type %d: %w", r.Type, common.ErrCorrupt)
	}
	if err != nil {
		return nil, 0, err
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("wal: %d bytes after type %d record: %w", len(body), r.Type, common.ErrCorrupt)
	}
	return r, total, nil
}

var errIncomplete = fmt.Errorf("wal: incomplete record")

func readBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, b, common.ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < n {
		return nil, b, common.ErrCorrupt
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out, b[n:], nil
}

// LLSNCounter is the node-local logical clock of §4.4.
type LLSNCounter struct {
	mu  sync.Mutex
	cur common.LLSN
}

// Observe folds a page's LLSN into the counter (called whenever the node
// reads a page from storage or the DBP).
func (c *LLSNCounter) Observe(l common.LLSN) {
	c.mu.Lock()
	if l > c.cur {
		c.cur = l
	}
	c.mu.Unlock()
}

// Next increments the counter and returns the new LLSN for a fresh record.
func (c *LLSNCounter) Next() common.LLSN {
	c.mu.Lock()
	c.cur++
	l := c.cur
	c.mu.Unlock()
	return l
}

// Current returns the counter without advancing it.
func (c *LLSNCounter) Current() common.LLSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// Writer appends a node's redo records to its shared-storage stream with
// group commit: concurrent Sync callers ride a single storage sync. With the
// commit pipeline attached (AttachPipeline), an external syncer — one per
// cluster, see core — keeps sync rounds in flight while appends are
// arriving, bracketing each round with BeginRound/EndRound; committers then
// ride the next round completion instead of running a full storage round
// themselves. The pipeline moves only WHO runs the round — durability itself
// is still established by storage.LogSync, and callers still gate on
// Durable().
type Writer struct {
	store storage.API
	node  common.NodeID

	mu      sync.Mutex
	closed  bool
	nextLSN common.LSN

	syncMu   sync.Mutex
	synced   common.LSN
	syncCond *sync.Cond
	inflight int // storage sync rounds currently running (self-run + pipeline)

	// Pipeline state.
	pipeOn     atomic.Bool
	pipeKick   chan<- struct{} // wakes the cluster syncer on append
	pipeLastNS atomic.Int64    // wall nanos of the last append (hotness signal)
	rides      atomic.Int64    // syncs absorbed by an in-flight round
	tr         *trace.Tracer
}

// NewWriter creates a writer resuming at the stream's current durable end.
func NewWriter(store storage.API, node common.NodeID) *Writer {
	w := &Writer{store: store, node: node}
	w.nextLSN = store.LogDurableLSN(node)
	w.synced = w.nextLSN
	w.syncCond = sync.NewCond(&w.syncMu)
	return w
}

// SetTracer attaches the node's commit-path tracer (nil disables). Appends
// are observed as StageLogAppend; syncs that had to wait for durability as
// StageLogSync.
func (w *Writer) SetTracer(t *trace.Tracer) { w.tr = t }

// Append encodes and appends rec (setting rec.LSN), returning the LSN just
// past the record; the record is durable only after Sync reaches it. A closed
// or fenced writer drops the record and returns the end it would have had
// without advancing, an LSN Durable() never reaches: a caller gating on
// Durable() < end sees a dropped record as not durable.
func (w *Writer) Append(rec *Record) common.LSN {
	tok := w.tr.Start()
	buf := rec.Marshal(nil)
	w.mu.Lock()
	dropped := w.nextLSN + common.LSN(len(buf))
	if w.closed {
		// A zombie thread of a crashed node: its stream now belongs to
		// the restarted incarnation; drop the record (the crash already
		// lost this transaction).
		w.mu.Unlock()
		return dropped
	}
	rec.LSN = w.nextLSN
	lsn := w.store.LogAppend(w.node, buf)
	if fenced := w.store.LogFenced(w.node); lsn != w.nextLSN || fenced {
		if fenced {
			// A survivor fenced the stream for takeover: the append was
			// dropped at the storage layer (or raced LogCrashVolatile).
			// This writer belongs to an evicted incarnation — close it.
			w.closed = true
			w.mu.Unlock()
			return dropped
		}
		w.mu.Unlock()
		panic(fmt.Sprintf("wal: writer lost track of stream offset: have %d want %d", lsn, w.nextLSN))
	}
	w.nextLSN += common.LSN(len(buf))
	end := w.nextLSN
	w.mu.Unlock()
	if w.pipeOn.Load() {
		w.pipeLastNS.Store(time.Now().UnixNano())
		select {
		case w.pipeKick <- struct{}{}:
		default:
		}
	}
	w.tr.Observe(trace.StageLogAppend, tok)
	return end
}

// Close fences the writer after a node crash: appends and syncs become
// no-ops so zombie threads cannot corrupt the stream. It also detaches the
// writer from the cluster commit pipeline.
func (w *Writer) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.pipeOn.Store(false)
}

func (w *Writer) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// Sync makes the stream durable at least up to lsn. Concurrent callers are
// coalesced: any storage sync round in flight when Sync is called covers
// every byte already appended (durability is marked at round completion), so
// a caller rides the next completion and only self-runs a round when none is
// in flight.
func (w *Writer) Sync(lsn common.LSN) {
	if w.isClosed() || w.store.LogFenced(w.node) {
		return
	}
	tok := w.tr.Start()
	selfRan := false
	w.syncMu.Lock()
	waited := w.synced < lsn
	for w.synced < lsn {
		if w.inflight > 0 {
			w.syncCond.Wait()
			continue
		}
		selfRan = true
		w.inflight++
		w.syncMu.Unlock()
		durable := w.store.LogSync(w.node)
		fenced, closed := w.store.LogFenced(w.node), w.isClosed()
		w.syncMu.Lock()
		w.inflight--
		if durable > w.synced && !closed {
			w.synced = durable
		}
		w.syncCond.Broadcast()
		if fenced || closed {
			// The stream was fenced for takeover, or the node crashed,
			// mid-sync: this writer's durable frontier will never advance
			// again (after a crash the stream's next bytes belong to the
			// next incarnation, so they must not count either); don't spin.
			// Callers must re-check Durable() before treating the commit
			// as durable.
			break
		}
	}
	w.syncMu.Unlock()
	if waited {
		// Only syncs that found the durable frontier behind them are a
		// group-commit stage; no-op syncs behind an earlier force are free.
		// A wait fully absorbed by rounds someone else ran is the pipelined
		// flavor (residual wait); running our own round is the classic one.
		if !selfRan && w.pipeOn.Load() {
			w.rides.Add(1)
			w.tr.Observe(trace.StageLogPipeline, tok)
		} else {
			w.tr.Observe(trace.StageLogSync, tok)
		}
	}
}

// AttachPipeline connects the writer to the cluster's pipelined group-commit
// syncer: appends record a hotness timestamp and kick the syncer's wake
// channel, and durability waits absorbed by syncer rounds are classified as
// StageLogPipeline. The kick channel must be buffered; sends never block.
func (w *Writer) AttachPipeline(kick chan<- struct{}) {
	w.pipeKick = kick
	w.pipeOn.Store(true)
}

// BeginRound marks a pipeline sync round in flight for this stream, so
// concurrent Sync callers ride it instead of self-running a storage sync.
// Every BeginRound must be paired with EndRound.
func (w *Writer) BeginRound() {
	w.syncMu.Lock()
	w.inflight++
	w.syncMu.Unlock()
}

// EndRound completes a pipeline round, publishing the durable frontier the
// round established and waking riders.
func (w *Writer) EndRound(durable common.LSN) {
	w.syncMu.Lock()
	w.inflight--
	if durable > w.synced {
		w.synced = durable
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
}

// PipelineHot reports whether the stream saw an append within window (and is
// still attached to the pipeline); the cluster syncer only spends rounds on
// hot streams.
func (w *Writer) PipelineHot(window time.Duration) bool {
	if !w.pipeOn.Load() {
		return false
	}
	last := w.pipeLastNS.Load()
	return last != 0 && time.Since(time.Unix(0, last)) <= window
}

// Rides returns how many durability waits were fully absorbed by pipeline
// rounds (the StageLogPipeline count).
func (w *Writer) Rides() int64 { return w.rides.Load() }

// End returns the LSN just past the last appended record.
func (w *Writer) End() common.LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// Durable returns the durable frontier as known to the writer.
func (w *Writer) Durable() common.LSN {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.synced
}

// StreamReader decodes one node's durable records in LSN order, reading the
// stream in bounded chunks.
type StreamReader struct {
	store storage.API
	node  common.NodeID
	pos   common.LSN
	buf   []byte
	eof   bool
	chunk int
}

// DefaultChunkSize is the recovery read granularity per stream.
const DefaultChunkSize = 256 * 1024

// NewStreamReader starts reading node's stream at from.
func NewStreamReader(store storage.API, node common.NodeID, from common.LSN, chunk int) *StreamReader {
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return &StreamReader{store: store, node: node, pos: from, chunk: chunk}
}

// Next returns the next record, or (nil, nil) at end of durable stream.
func (sr *StreamReader) Next() (*Record, error) {
	for {
		if rec, n, err := unmarshalOne(sr.buf); err == nil {
			rec.LSN = sr.pos
			sr.pos += common.LSN(n)
			sr.buf = sr.buf[n:]
			return rec, nil
		} else if err != errIncomplete {
			return nil, err
		}
		if sr.eof {
			if len(sr.buf) != 0 {
				// A torn tail can only be un-synced data, which
				// LogCrashVolatile discards; anything else is
				// corruption.
				return nil, fmt.Errorf("wal: %d trailing bytes in node %d stream: %w",
					len(sr.buf), sr.node, common.ErrCorrupt)
			}
			return nil, nil
		}
		tmp := make([]byte, sr.chunk)
		n, err := sr.store.LogRead(sr.node, sr.pos+common.LSN(len(sr.buf)), tmp)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			sr.eof = true
			continue
		}
		sr.buf = append(sr.buf, tmp[:n]...)
	}
}

// MergeReader yields records from many node streams in an order safe for
// replay: a record is released only when its LLSN is at or below LLSN_bound,
// the minimum of the per-stream last-read LLSNs over streams that may still
// hold earlier records (§4.4). Released records are globally sorted by LLSN,
// so same-page records apply in generation order.
type MergeReader struct {
	streams []*mergeStream
}

type mergeStream struct {
	r       *StreamReader
	pending []*Record
	done    bool
	lastLL  common.LLSN
}

// NewMergeReader merges the given per-node readers.
func NewMergeReader(readers ...*StreamReader) *MergeReader {
	m := &MergeReader{}
	for _, r := range readers {
		m.streams = append(m.streams, &mergeStream{r: r})
	}
	return m
}

// batchTarget is how many records each stream buffers per refill round.
const batchTarget = 512

// Next returns the next replay-safe record, or (nil, nil) when all streams
// are exhausted.
func (m *MergeReader) Next() (*Record, error) {
	for {
		// Refill any live stream with an empty buffer.
		for _, s := range m.streams {
			if s.done || len(s.pending) > 0 {
				continue
			}
			for len(s.pending) < batchTarget {
				rec, err := s.r.Next()
				if err != nil {
					return nil, err
				}
				if rec == nil {
					s.done = true
					break
				}
				s.pending = append(s.pending, rec)
				s.lastLL = rec.LLSN
			}
		}
		// LLSN_bound: remaining (unread) records in a live stream all
		// have LLSN > lastLL of that stream.
		bound := common.LLSN(^uint64(0))
		for _, s := range m.streams {
			if !s.done && s.lastLL < bound {
				bound = s.lastLL
			}
		}
		// Pick the globally smallest buffered LLSN within the bound.
		var best *mergeStream
		for _, s := range m.streams {
			if len(s.pending) == 0 {
				continue
			}
			if best == nil || s.pending[0].LLSN < best.pending[0].LLSN {
				best = s
			}
		}
		if best == nil {
			return nil, nil
		}
		if best.pending[0].LLSN > bound {
			// All buffered records exceed the bound, which can only
			// happen if a live stream hasn't produced anything yet;
			// loop to refill it.
			continue
		}
		rec := best.pending[0]
		best.pending = best.pending[1:]
		return rec, nil
	}
}
