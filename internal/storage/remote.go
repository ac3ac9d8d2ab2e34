// Remote storage access: a satellite process (core.JoinRemote) runs its
// engine against the seed process's shared Store through a fabric RPC
// service, the way a PolarDB-MP primary talks to PolarStore over the network
// rather than hosting the store itself.
//
// The one protocol subtlety is the redo log. A record is not durable until
// LogSync, so shipping it any earlier buys nothing: LogAppend places it in a
// client-side tail at the stream end the client tracks and returns, and
// LogSync ships the tail and forces it in ONE round trip — a commit costs one
// storage RPC however many records it wrote. The tail is the stream's
// un-synced suffix, so whatever may drop that suffix (LogCrashVolatile,
// FenceLog) drops the tail, and what else moves the stream (LogTruncate) ships
// it first; a tail past maxLogTail ships early, unforced.
//
// wal.Writer assumes an append is applied exactly once at the stream end it
// tracks. A retried RPC could otherwise append twice, so the tail ships
// append-AT: the client sends the end LSN it expects, and the server applies
// only if the stream still ends there — observing end == expect+len(data)
// instead means the lost reply's append DID land and the retry is
// acknowledged without re-applying.
//
// The fence is never polled. LogFenced reads a flag that only the client's
// own calls and replies write: its FenceLog and UnfenceLog, the fence bit
// every ship reply carries, a tail the seed refused (the stream was fenced,
// or moved, under it) and an uplink that died for good. The last three fail
// the flag safe to true, which makes wal.Writer close itself — its Durable()
// never reaches the refused records, so no commit in them is acknowledged. A
// fence set by another process is learned at the next ship, at the latest
// the commit's LogSync, before anything in the tail is acknowledged.
package storage

import (
	"fmt"
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
	"polardbmp/internal/wire"
)

// ServiceStorage is the fabric RPC service name the storage proxy serves on
// the PMFS endpoint.
const ServiceStorage = "pmfs.storage"

// Storage proxy opcodes (first payload byte). A deleted op leaves a _, so
// every op keeps its number and no number is reused.
const (
	sopAllocPage uint8 = iota + 1
	sopReadPage
	sopWritePage
	_
	sopPageIDs
	_
	sopPutMeta
	sopGetMeta
	sopLogAppendAt
	sopLogSync
	sopLogEnd
	sopLogDurable
	sopLogStart
	sopLogRead
	sopLogCrash
	sopLogFence
	sopLogUnfence
	_
	sopLogTruncate
	sopLogNodes
)

// Serve registers the storage RPC service for s on ep (the seed does this on
// the PMFS endpoint). Responses are [status][result]; all integers LE.
func Serve(ep *rdma.Endpoint, s API) {
	ep.Serve(ServiceStorage, func(req []byte) ([]byte, error) {
		result, err := serveOp(s, req)
		out := wire.AppendStatus(nil, err)
		return append(out, result...), nil
	})
}

// serveOp decodes one storage request, checks it, and only then runs it: a
// request that is short, or has bytes after its last field, is refused as
// corrupt and changes nothing.
func serveOp(s API, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	op := rd.U8()
	var run func() ([]byte, error)
	switch op {
	case sopAllocPage:
		run = func() ([]byte, error) { return wire.AppendU64(nil, uint64(s.AllocPage())), nil }
	case sopReadPage:
		id := common.PageID(rd.U64())
		run = func() ([]byte, error) { return s.ReadPage(id) }
	case sopWritePage:
		id, img := common.PageID(rd.U64()), rd.Bytes()
		run = func() ([]byte, error) { return nil, s.WritePage(id, img) }
	case sopPageIDs:
		run = func() ([]byte, error) {
			ids := s.PageIDs()
			out := wire.AppendU32(nil, uint32(len(ids)))
			for _, id := range ids {
				out = wire.AppendU64(out, uint64(id))
			}
			return out, nil
		}
	case sopPutMeta:
		key, val := rd.Str(), rd.Bytes()
		run = func() ([]byte, error) { s.PutMeta(key, val); return nil, nil }
	case sopGetMeta:
		key := rd.Str()
		run = func() ([]byte, error) {
			if v := s.GetMeta(key); v != nil {
				return append([]byte{1}, v...), nil
			}
			return []byte{0}, nil
		}
	case sopLogAppendAt:
		node, expect, data := common.NodeID(rd.U16()), common.LSN(rd.U64()), rd.Bytes()
		run = func() ([]byte, error) { return serveLogAppendAt(s, node, expect, data), nil }
	case sopLogSync:
		// [node] forces the stream; [node][expect][tail] first appends the
		// client's buffered tail at expect. Response: [durable u64][fenced
		// u8][applied u8].
		node := common.NodeID(rd.U16())
		tail := len(rd.Rest()) > 0
		var expect common.LSN
		var data []byte
		if tail {
			expect, data = common.LSN(rd.U64()), rd.Bytes()
		}
		run = func() ([]byte, error) {
			applied := true
			if tail {
				_, applied = logAppendAt(s, node, expect, data)
			}
			out := wire.AppendU64(nil, uint64(s.LogSync(node)))
			return appendFlags(out, s.LogFenced(node), applied), nil
		}
	case sopLogEnd:
		node := common.NodeID(rd.U16())
		run = func() ([]byte, error) { return wire.AppendU64(nil, uint64(s.LogEndLSN(node))), nil }
	case sopLogDurable:
		node := common.NodeID(rd.U16())
		run = func() ([]byte, error) { return wire.AppendU64(nil, uint64(s.LogDurableLSN(node))), nil }
	case sopLogStart:
		node := common.NodeID(rd.U16())
		run = func() ([]byte, error) { return wire.AppendU64(nil, uint64(s.LogStartLSN(node))), nil }
	case sopLogRead:
		node, lsn, n := common.NodeID(rd.U16()), common.LSN(rd.U64()), int(rd.U32())
		run = func() ([]byte, error) {
			if n < 0 || n > wire.MaxFrame/2 {
				n = wire.MaxFrame / 2
			}
			buf := make([]byte, n)
			got, err := s.LogRead(node, lsn, buf)
			if err != nil {
				return nil, err
			}
			return buf[:got], nil
		}
	case sopLogCrash:
		node := common.NodeID(rd.U16())
		run = func() ([]byte, error) { s.LogCrashVolatile(node); return nil, nil }
	case sopLogFence:
		node := common.NodeID(rd.U16())
		run = func() ([]byte, error) { s.FenceLog(node); return nil, nil }
	case sopLogUnfence:
		node := common.NodeID(rd.U16())
		run = func() ([]byte, error) { s.UnfenceLog(node); return nil, nil }
	case sopLogTruncate:
		node, lsn := common.NodeID(rd.U16()), common.LSN(rd.U64())
		run = func() ([]byte, error) { s.LogTruncate(node, lsn); return nil, nil }
	case sopLogNodes:
		run = func() ([]byte, error) {
			ids := s.LogNodes()
			out := wire.AppendU32(nil, uint32(len(ids)))
			for _, id := range ids {
				out = wire.AppendU16(out, uint16(id))
			}
			return out, nil
		}
	}
	if run == nil && rd.Err() == nil {
		return nil, fmt.Errorf("storage: rpc op %d: %w", op, common.ErrNoService)
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("storage: rpc op %d: %w", op, err)
	}
	return run()
}

// logAppendAt implements idempotent append-at-expected-LSN: data is applied
// only if node's stream ends at expect. It returns the stream end afterwards
// and whether data is in the stream at expect.
func logAppendAt(s API, node common.NodeID, expect common.LSN, data []byte) (end common.LSN, applied bool) {
	end = s.LogEndLSN(node)
	switch {
	case end == expect:
		placed := s.LogAppend(node, data)
		end = s.LogEndLSN(node)
		applied = placed == expect && end == expect+common.LSN(len(data))
	case end == expect+common.LSN(len(data)):
		// The previous attempt's reply was lost but its append landed:
		// acknowledge without re-applying.
		applied = true
	}
	return end, applied
}

// serveLogAppendAt answers sopLogAppendAt: [end u64][fenced u8][applied u8].
func serveLogAppendAt(s API, node common.NodeID, expect common.LSN, data []byte) []byte {
	end, applied := logAppendAt(s, node, expect, data)
	return appendFlags(wire.AppendU64(nil, uint64(end)), s.LogFenced(node), applied)
}

func appendFlags(out []byte, flags ...bool) []byte {
	for _, f := range flags {
		if f {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// maxLogTail bounds a stream's client-side tail: a bulk load that appends
// this much without a sync ships it early (unforced), so neither the tail nor
// the request that carries it outgrows one modest frame.
const maxLogTail = 256 << 10

// remoteStream is the client-side shadow of one log stream: its end LSN, the
// un-shipped tail ending there, and the fence as the client last learned it.
type remoteStream struct {
	// shipMu serializes ships of the tail (at most one append-at in flight
	// per stream, so expected LSNs stay contiguous) and guards req. It is
	// taken before mu and held across the RPC; mu is not, so appends proceed
	// while a ship is in flight.
	shipMu sync.Mutex
	req    []byte // reused request buffer

	mu       sync.Mutex
	end      common.LSN // LSN the next append lands at (valid when endKnown)
	endKnown bool
	tail     []byte // appended but not yet shipped: the bytes [end-len(tail), end)
	fenced   bool
}

// Remote implements API over the fabric storage service. It is safe for
// concurrent use; per-stream append ordering is the caller's job exactly as
// with Store (wal.Writer already serializes its stream).
type Remote struct {
	conn  rdma.Conn
	stats Stats
	rp    common.RetryPolicy

	mu      sync.Mutex
	streams map[common.NodeID]*remoteStream
}

// NewRemote returns a remote store speaking through conn (a satellite's
// source-bound fabric conn; the service lives on the PMFS endpoint reached
// via the conn's default route). Storage requests are never epoch-stamped,
// and the conn's own retry is off: call runs the uplink policy itself.
func NewRemote(conn rdma.Conn) *Remote {
	return &Remote{
		conn: conn.WithRetry(common.NoRetryPolicy()).WithStamp(nil),
		// The uplink policy is much heavier than the fabric default: storage
		// has almost no error paths, so riding out an outage beats surfacing
		// a failure the engine cannot express. The budget (~12s of backoff)
		// must exceed the worst transient outage the membership layer
		// forgives without evicting this node — a brief partition plus
		// keepalive detection plus the full redial backoff (2s cap, +25%
		// jitter) — because giving up early fail-safes the log stream to
		// fenced, which permanently closes the node's wal.Writer: a node
		// that still holds its lease would be bricked, committing nothing
		// ever again. If retries DO exhaust, the uplink has been dead far
		// longer than any lease, the seed has evicted us, and the fail-safe
		// fence converges with the server-side truth.
		rp:      common.RetryPolicy{MaxAttempts: 40, BaseDelay: time.Millisecond, MaxDelay: 400 * time.Millisecond},
		streams: make(map[common.NodeID]*remoteStream),
	}
}

var _ API = (*Remote)(nil)

// SetRetryPolicy replaces the uplink retry policy (tests and operators that
// want faster failure detection than the ride-out default).
func (r *Remote) SetRetryPolicy(p common.RetryPolicy) { r.rp = p }

// Stats exposes client-side op counters (reads/writes/syncs this process
// issued, not the seed's totals).
func (r *Remote) Stats() *Stats { return &r.stats }

// SetInjector is accepted for interface compatibility; fault injection for a
// satellite's storage path happens at the fabric layer it rides on.
func (r *Remote) SetInjector(inj common.FaultInjector) {}

func (r *Remote) stream(node common.NodeID) *remoteStream {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.streams[node]
	if st == nil {
		st = &remoteStream{}
		r.streams[node] = st
	}
	return st
}

// call performs one storage RPC with transient-fault retries and decodes the
// status header. The loop is ours, around a single-shot conn, because it runs
// the uplink policy and a status decoded inside an attempt can be transient.
func (r *Remote) call(req []byte) ([]byte, error) {
	var result []byte
	err := common.Retry(r.rp, func() error {
		resp, err := r.conn.Call(common.PMFSNode, ServiceStorage, req)
		if err != nil {
			return err
		}
		rd := wire.NewReader(resp)
		if err := wire.DecodeStatus(rd); err != nil {
			return err
		}
		result = append([]byte(nil), rd.Rest()...)
		return nil
	})
	return result, err
}

// mustCall backs the API methods that have no error path (AllocPage,
// PutMeta, LogTruncate, ...): the store they model cannot fail, only stall.
// If the uplink stays dead past the retry budget the satellite has lost its
// disk; that is fatal.
func (r *Remote) mustCall(what string, req []byte) []byte {
	out, err := r.call(req)
	if err != nil {
		panic(fmt.Sprintf("storage: remote %s: uplink lost: %v", what, err))
	}
	return out
}

func reqOp(op uint8) []byte { return []byte{op} }

func reqNode(op uint8, node common.NodeID) []byte {
	return wire.AppendU16([]byte{op}, uint16(node))
}

// AllocPage allocates a cluster-unique page id at the seed.
func (r *Remote) AllocPage() common.PageID {
	out := r.mustCall("alloc page", reqOp(sopAllocPage))
	return common.PageID(wire.NewReader(out).U64())
}

// ReadPage fetches a page image from the seed's store.
func (r *Remote) ReadPage(id common.PageID) ([]byte, error) {
	r.stats.PageReads.Inc()
	return r.call(wire.AppendU64(reqOp(sopReadPage), uint64(id)))
}

// WritePage stores a page image through the seed.
func (r *Remote) WritePage(id common.PageID, img []byte) error {
	r.stats.PageWrites.Inc()
	req := wire.AppendU64(reqOp(sopWritePage), uint64(id))
	req = wire.AppendBytes(req, img)
	_, err := r.call(req)
	return err
}

// PageIDs lists every stored page id.
func (r *Remote) PageIDs() []common.PageID {
	out := r.mustCall("page ids", reqOp(sopPageIDs))
	rd := wire.NewReader(out)
	k := int(rd.U32())
	ids := make([]common.PageID, 0, k)
	for i := 0; i < k; i++ {
		ids = append(ids, common.PageID(rd.U64()))
	}
	return ids
}

// PutMeta stores a metadata blob.
func (r *Remote) PutMeta(key string, val []byte) {
	req := wire.AppendString(reqOp(sopPutMeta), key)
	req = wire.AppendBytes(req, val)
	r.mustCall("put meta", req)
}

// GetMeta fetches a metadata blob (nil if absent).
func (r *Remote) GetMeta(key string) []byte {
	out := r.mustCall("get meta", wire.AppendString(reqOp(sopGetMeta), key))
	if len(out) == 0 || out[0] == 0 {
		return nil
	}
	return out[1:]
}

// LogAppend places data in node's client-side tail at the tracked stream end
// and returns that LSN; nothing reaches the seed before the next LogSync
// unless the tail outgrows maxLogTail. A stream known to be fenced drops the
// append, as the store itself would.
func (r *Remote) LogAppend(node common.NodeID, data []byte) common.LSN {
	st := r.stream(node)
	st.mu.Lock()
	if !st.endKnown {
		out, err := r.call(reqNode(sopLogEnd, node))
		if err != nil {
			// Uplink gone: report the stream fenced so wal.Writer closes
			// cleanly; nothing was durably acknowledged.
			st.fenced = true
		} else {
			st.end = common.LSN(wire.NewReader(out).U64())
			st.endKnown = true
		}
	}
	lsn := st.end
	if st.fenced {
		st.mu.Unlock()
		return lsn
	}
	st.tail = append(st.tail, data...)
	st.end += common.LSN(len(data))
	full := len(st.tail) >= maxLogTail
	st.mu.Unlock()
	if full {
		r.ship(node, sopLogAppendAt)
	}
	return lsn
}

// LogSync ships node's tail and makes the stream durable at the seed in one
// round trip, returning the durable LSN. That LSN covers the tail as it stood
// when the call began — a record appended while the RPC was in flight is past
// it, and its committer's wal.Writer.Sync runs another round.
func (r *Remote) LogSync(node common.NodeID) common.LSN {
	r.stats.LogSyncs.Inc()
	return r.ship(node, sopLogSync)
}

// ship sends node's tail to the seed as one idempotent append-at-expected-LSN,
// op being sopLogAppendAt (append only) or sopLogSync (append and force; with
// no tail, a plain force). For a sync it returns the durable LSN, or 0 —
// nothing newly durable — when the tail did not make it into the stream.
func (r *Remote) ship(node common.NodeID, op uint8) common.LSN {
	st := r.stream(node)
	st.shipMu.Lock()
	defer st.shipMu.Unlock()
	st.mu.Lock()
	n := len(st.tail)
	if n == 0 && op == sopLogAppendAt {
		st.mu.Unlock()
		return 0
	}
	req := append(st.req[:0], op)
	req = wire.AppendU16(req, uint16(node))
	if n > 0 {
		req = wire.AppendU64(req, uint64(st.end)-uint64(n))
		req = wire.AppendBytes(req, st.tail)
		st.tail = st.tail[:0]
	}
	st.req = req
	st.mu.Unlock()
	out, err := r.call(req)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		// Uplink gone: report the stream fenced so wal.Writer closes
		// cleanly; nothing in the tail was durably acknowledged.
		st.fenced = true
		return 0
	}
	rd := wire.NewReader(out)
	lsn := common.LSN(rd.U64())
	st.fenced = rd.U8() == 1
	if applied := rd.U8() == 1; !applied {
		// The seed refused the tail: the stream was fenced, or no longer
		// ends where this client tracked it. The records are gone, and the
		// seed's durable LSN may cover another incarnation's: this one's
		// writer must stop, and must not take that LSN for its own.
		st.fenced = true
		return 0
	}
	return lsn
}

// dropTail discards node's un-shipped tail (after any ship in flight) and
// forgets the tracked end.
func (r *Remote) dropTail(node common.NodeID) {
	st := r.stream(node)
	st.shipMu.Lock()
	st.mu.Lock()
	st.tail = st.tail[:0]
	st.endKnown = false
	st.mu.Unlock()
	st.shipMu.Unlock()
}

func (r *Remote) logLSN(op uint8, node common.NodeID) common.LSN {
	out := r.mustCall("log lsn", reqNode(op, node))
	return common.LSN(wire.NewReader(out).U64())
}

// LogEndLSN returns the stream's append frontier: for a stream this client
// appends to, the end it tracks (the un-shipped tail included).
func (r *Remote) LogEndLSN(node common.NodeID) common.LSN {
	st := r.stream(node)
	st.mu.Lock()
	end, known := st.end, st.endKnown
	st.mu.Unlock()
	if known {
		return end
	}
	return r.logLSN(sopLogEnd, node)
}

// LogDurableLSN returns the durable frontier.
func (r *Remote) LogDurableLSN(node common.NodeID) common.LSN { return r.logLSN(sopLogDurable, node) }

// LogStartLSN returns the first retained LSN.
func (r *Remote) LogStartLSN(node common.NodeID) common.LSN { return r.logLSN(sopLogStart, node) }

// LogRead reads durable bytes starting at lsn.
func (r *Remote) LogRead(node common.NodeID, lsn common.LSN, buf []byte) (int, error) {
	r.stats.LogReads.Inc()
	req := reqNode(sopLogRead, node)
	req = wire.AppendU64(req, uint64(lsn))
	req = wire.AppendU32(req, uint32(len(buf)))
	out, err := r.call(req)
	if err != nil {
		return 0, err
	}
	return copy(buf, out), nil
}

// LogCrashVolatile discards the un-synced tail, here and at the seed.
func (r *Remote) LogCrashVolatile(node common.NodeID) {
	r.dropTail(node)
	r.mustCall("log crash", reqNode(sopLogCrash, node))
}

// FenceLog fences node's stream; an un-shipped tail is dropped, as the fenced
// store would drop it.
func (r *Remote) FenceLog(node common.NodeID) {
	r.dropTail(node)
	r.mustCall("fence", reqNode(sopLogFence, node))
	st := r.stream(node)
	st.mu.Lock()
	st.fenced = true
	st.mu.Unlock()
}

// UnfenceLog re-opens node's stream.
func (r *Remote) UnfenceLog(node common.NodeID) {
	r.mustCall("unfence", reqNode(sopLogUnfence, node))
	st := r.stream(node)
	st.mu.Lock()
	st.fenced = false
	st.mu.Unlock()
}

// LogFenced reports the stream's fence as this client last learned it, from
// its own FenceLog/UnfenceLog and its ships' replies; it sends nothing. A
// dead uplink or a refused tail reads as fenced.
func (r *Remote) LogFenced(node common.NodeID) bool {
	st := r.stream(node)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fenced
}

// LogTruncate discards the stream prefix below lsn. The tail ships first, so
// the seed truncates the stream this client sees; the end does not move.
func (r *Remote) LogTruncate(node common.NodeID, lsn common.LSN) {
	r.ship(node, sopLogAppendAt)
	r.mustCall("truncate", wire.AppendU64(reqNode(sopLogTruncate, node), uint64(lsn)))
}

// LogNodes lists streams known at the seed.
func (r *Remote) LogNodes() []common.NodeID {
	out := r.mustCall("log nodes", reqOp(sopLogNodes))
	rd := wire.NewReader(out)
	k := int(rd.U32())
	ids := make([]common.NodeID, 0, k)
	for i := 0; i < k; i++ {
		ids = append(ids, common.NodeID(rd.U16()))
	}
	return ids
}
