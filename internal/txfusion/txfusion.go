// Package txfusion implements Transaction Fusion (§4.1): the global
// Timestamp Oracle (TSO) hosted in PMFS shared memory, the per-node
// Transaction Information Table (TIT) exposed as an RDMA region, global
// transaction ids, Algorithm 1 (GetCTSForRow), TIT recycling via a global
// minimum view, and the Linear Lamport timestamp reuse from PolarDB-SCC.
//
// Transaction metadata is fully decentralized: each node stores only its own
// transactions' state in its TIT; any other node resolves a transaction's
// commit timestamp with a single one-sided read of the owning slot.
package txfusion

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
	"polardbmp/internal/trace"
)

// Region and service names on the fabric.
const (
	RegionTSO  = "pmfs.tso" // 8-byte global timestamp counter (on PMFS)
	RegionGMV  = "pmfs.gmv" // 8-byte global minimum view (on PMFS)
	RegionTIT  = "tit"      // per-node TIT slot array
	ServiceTxF = "txfusion" // PMFS RPC service (min-view reports)
)

// TIT region layout: a 16-byte header followed by the slot array. Each
// field is an 8-byte word so one-sided CAS works on any of them.
//
// The header's fence word supports the tailored recovery policy (§4.4): a
// restarting node raises the fence so that its pre-crash transactions —
// whose slots were lost with its memory — resolve as "still active" until
// their uncommitted changes are rolled back; with the fence down, a slot
// mismatch safely means "finished and recycled ⇒ visible to all".
const (
	hdrFence     = 0 // 1 while the node is recovering pre-crash transactions
	hdrSpecFloor = 8 // speculative-CTS recycle floor (see Begin/Recycle)
	headerSize   = 16

	slotTrx     = 0  // local transaction id ("pointer"; 0 = free slot)
	slotCTS     = 8  // commit timestamp (CSNInit while active)
	slotVersion = 16 // reuse generation
	slotRef     = 24 // waiter flag (§4.3.2): set by blocked remote trxs
	slotActive  = 32 // 1 while the slot is allocated
	SlotSize    = 40
)

// Server is the Transaction Fusion side of PMFS: it owns the TSO and the
// global-minimum-view word, and aggregates per-node minimum views.
type Server struct {
	fabric *rdma.Fabric
	tso    *rdma.Region
	gmv    *rdma.Region
	gate   common.EpochGate

	// Min-view reports are striped by reporting node so that the 5ms
	// report ticks of N nodes do not serialize on one mutex. The GMV fold
	// walks every stripe; a fold racing a concurrent report may publish a
	// momentarily lower minimum, which is conservative (recycle and purge
	// treat the GMV as a lower bound).
	stripes [minViewStripes]minViewStripe
}

type minViewStripe struct {
	mu    sync.Mutex
	views map[common.NodeID]common.CSN
}

const minViewStripes = 8

func (s *Server) stripe(node common.NodeID) *minViewStripe {
	return &s.stripes[int(node)%minViewStripes]
}

// NewServer attaches Transaction Fusion to the PMFS endpoint.
func NewServer(ep *rdma.Endpoint, fabric *rdma.Fabric) *Server {
	s := &Server{
		fabric: fabric,
		tso:    ep.RegisterRegion(RegionTSO, 8),
		gmv:    ep.RegisterRegion(RegionGMV, 8),
	}
	for i := range s.stripes {
		s.stripes[i].views = make(map[common.NodeID]common.CSN)
	}
	// The TSO starts above CSNMin so no real commit shares the sentinel.
	if err := s.tso.LocalWrite64(0, uint64(common.CSNMin)); err != nil {
		panic(err)
	}
	if err := s.gmv.LocalWrite64(0, uint64(common.CSNMin)); err != nil {
		panic(err)
	}
	ep.Serve(ServiceTxF, s.handle)
	return s
}

// RPC wire ops.
const (
	opReportMinView = 1
	opRemoveNode    = 2
)

func (s *Server) handle(req []byte) ([]byte, error) {
	if len(req) < 1 {
		return nil, common.ErrShortBuffer
	}
	switch req[0] {
	case opReportMinView:
		if len(req) < 11 {
			return nil, common.ErrShortBuffer
		}
		node := common.NodeID(binary.LittleEndian.Uint16(req[1:]))
		csn := common.CSN(binary.LittleEndian.Uint64(req[3:]))
		// Gated: an evicted zombie's stale min-view report would hold the
		// global min view back (blocking TIT recycling and purge) forever.
		if s.gate != nil {
			if err := s.gate(node, common.TrailingEpoch(req, 11)); err != nil {
				return nil, err
			}
		}
		// The oracle is read here, on its host: it stands in for a reporter
		// that holds no view (an idle node's minimum is "now"), sparing it a
		// round trip, and rides the reply so the reporter's view bound is
		// never staler than one report tick.
		tso := s.CurrentTSO()
		if csn == common.CSNMax {
			csn = tso
		}
		out := binary.LittleEndian.AppendUint64(nil, uint64(s.report(node, csn)))
		return binary.LittleEndian.AppendUint64(out, uint64(tso)), nil
	case opRemoveNode:
		if len(req) < 3 {
			return nil, common.ErrShortBuffer
		}
		node := common.NodeID(binary.LittleEndian.Uint16(req[1:]))
		st := s.stripe(node)
		st.mu.Lock()
		delete(st.views, node)
		st.mu.Unlock()
		return nil, nil
	default:
		return nil, fmt.Errorf("txfusion: unknown op %d", req[0])
	}
}

// report folds one node's minimum view in and publishes the new global
// minimum to the GMV region, which nodes read with one-sided verbs.
func (s *Server) report(node common.NodeID, csn common.CSN) common.CSN {
	st := s.stripe(node)
	st.mu.Lock()
	st.views[node] = csn
	st.mu.Unlock()
	gmv := csn
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		for _, v := range s.stripes[i].views {
			if v < gmv {
				gmv = v
			}
		}
		s.stripes[i].mu.Unlock()
	}
	if err := s.gmv.LocalWrite64(0, uint64(gmv)); err != nil {
		panic(err)
	}
	return gmv
}

// SetEpochGate installs the membership epoch gate on the min-view report
// path; stamped reports from evicted incarnations are rejected.
func (s *Server) SetEpochGate(g common.EpochGate) { s.gate = g }

// SetTSO force-sets the oracle (full-cluster recovery: the new oracle must
// exceed every CTS found in the durable commit records).
func (s *Server) SetTSO(v common.CSN) {
	if err := s.tso.LocalWrite64(0, uint64(v)); err != nil {
		panic(err)
	}
}

// CurrentTSO returns the oracle's current value (test/inspection hook).
func (s *Server) CurrentTSO() common.CSN {
	v, err := s.tso.LocalRead64(0)
	if err != nil {
		panic(err)
	}
	return common.CSN(v)
}

// Config tunes a node's Transaction Fusion client.
type Config struct {
	// TITSlots is the slot-array size (default 4096).
	TITSlots int
	// LamportReuse enables the Linear Lamport timestamp optimization for
	// read-snapshot fetches (§4.1, PolarDB-SCC) and the view bound behind
	// the lazy read view (ViewBound). Default on; the ablation bench turns
	// it off.
	LamportReuse bool
	// CTSCacheSize bounds the committed-CTS lookaside cache (0 disables).
	CTSCacheSize int
}

func (c *Config) fill() {
	if c.TITSlots <= 0 {
		c.TITSlots = 4096
	}
	if c.CTSCacheSize < 0 {
		c.CTSCacheSize = 0
	}
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{TITSlots: 4096, LamportReuse: true, CTSCacheSize: 1 << 14}
}

// Client is one node's Transaction Fusion: its local TIT plus access paths
// to the TSO and every peer TIT.
type Client struct {
	node   common.NodeID
	fabric rdma.Conn
	tit    *rdma.Region
	cfg    Config

	mu      sync.Mutex
	free    []uint32 // free slot ids
	inUse   map[uint32]common.TrxID
	views   map[common.CSN]int // active read-view multiset (for min view)
	lastGMV common.CSN

	// Linear Lamport timestamp state.
	tsMu      sync.Mutex
	cachedTS  common.CSN
	fetchedAt time.Time

	cacheMu  sync.Mutex
	ctsCache map[common.GTrxID]common.CSN

	// TSO group-allocation combiner state (see NextCommitCSN). tsoSolos
	// counts direct fetch-adds in flight for the adaptive solo fast path.
	tsoMu      sync.Mutex
	tsoWaiters []chan tsoGrant
	tsoLeader  bool
	tsoSolos   int

	// Speculative-CTS state. Owner side: specNext is the lowest local trx
	// id not yet finished-and-freed; ids finishing out of order park in
	// specDone until the contiguous floor (specNext-1) advances, which is
	// then published at hdrSpecFloor for one-sided pickup. Reader side:
	// peerFloor caches each peer's last-seen floor; a g.Trx at or below it
	// resolves to CSNMin with no fabric op.
	specMu    sync.Mutex
	specNext  common.TrxID
	specDone  map[common.TrxID]struct{}
	floorMu   sync.Mutex
	peerFloor map[common.NodeID]common.TrxID
	specHits  atomic.Int64
	specReads atomic.Int64

	tr *trace.Tracer

	closed atomic.Bool
}

// tsoGrant is one CSN handed out of a group fetch-add. grouped reports
// whether the round's single fetch-add covered more than one committer.
type tsoGrant struct {
	cts     common.CSN
	grouped bool
	err     error
}

// NewClient registers the node's TIT region and returns its client.
func NewClient(ep *rdma.Endpoint, fabric *rdma.Fabric, cfg Config) *Client {
	cfg.fill()
	c := &Client{
		node:     ep.Node(),
		fabric:   fabric.From(ep.Node()),
		tit:      ep.RegisterRegion(RegionTIT, headerSize+cfg.TITSlots*SlotSize),
		cfg:      cfg,
		inUse:    make(map[uint32]common.TrxID),
		views:    make(map[common.CSN]int),
		lastGMV:  common.CSNMin,
		ctsCache: make(map[common.GTrxID]common.CSN),
	}
	c.peerFloor = make(map[common.NodeID]common.TrxID)
	c.specDone = make(map[common.TrxID]struct{})
	c.free = make([]uint32, cfg.TITSlots)
	for i := range c.free {
		c.free[i] = uint32(cfg.TITSlots - 1 - i)
	}
	return c
}

// Node returns the owning node id.
func (c *Client) Node() common.NodeID { return c.node }

// SetTracer attaches the node's commit-path tracer (nil disables). TSO
// allocations are observed as StageTSOSolo or StageTSOGroup by whether the
// grant came out of a flat-combined round.
func (c *Client) SetTracer(t *trace.Tracer) { c.tr = t }

func slotOff(slot uint32) int { return headerSize + int(slot)*SlotSize }

// SetRecovering raises or lowers the recovery fence. A restarting node must
// raise it before re-registering its TIT region and lower it only after its
// pre-crash uncommitted transactions are rolled back.
func (c *Client) SetRecovering(on bool) {
	v := uint64(0)
	if on {
		v = 1
	}
	must(c.tit.LocalWrite64(hdrFence, v))
}

// InitTrxFloor seeds the speculative-CTS floor at the node's restored
// transaction-id watermark: every id at or below hw either finished before
// the restart or was never allocated (watermark slack), so — once the
// recovery fence is down — a version stamped with it is visible to all views
// or no longer exists, exactly the CSNMin contract. Readers never cache a
// floor read together with a raised fence, so a mid-recovery publication is
// harmless. Core calls this once per incarnation, before the node serves
// transactions; local trx ids are strictly monotone across incarnations
// (persisted watermark), which is what keeps stale cached floors sound.
func (c *Client) InitTrxFloor(hw common.TrxID) {
	c.specMu.Lock()
	c.specNext = hw + 1
	c.specMu.Unlock()
	must(c.tit.LocalWrite64(hdrSpecFloor, uint64(hw)))
}

// markFinished records that local transaction trx can never again resolve to
// anything but CSNMin — it was recycled under the GMV gate, aborted with its
// versions rolled back, or never admitted — and advances the published floor
// when the finished prefix is contiguous.
func (c *Client) markFinished(trx common.TrxID) {
	c.specMu.Lock()
	if c.specNext == 0 || trx < c.specNext {
		c.specMu.Unlock()
		return
	}
	if trx != c.specNext {
		c.specDone[trx] = struct{}{}
		c.specMu.Unlock()
		return
	}
	c.specNext++
	for {
		if _, ok := c.specDone[c.specNext]; !ok {
			break
		}
		delete(c.specDone, c.specNext)
		c.specNext++
	}
	floor := c.specNext - 1
	c.specMu.Unlock()
	must(c.tit.LocalWrite64(hdrSpecFloor, uint64(floor)))
}

// noteFloor folds a peer's floor observed on a one-sided header read into the
// reader-side cache. Floors only grow (monotone trx ids across incarnations).
func (c *Client) noteFloor(node common.NodeID, floor common.TrxID) {
	if floor == 0 {
		return
	}
	c.floorMu.Lock()
	if floor > c.peerFloor[node] {
		c.peerFloor[node] = floor
	}
	c.floorMu.Unlock()
}

// specCTS consults the cached recycle floor of g's owner: at or below it, g
// is proven finished (committed below the GMV, or aborted) without touching
// the fabric. Hit/read counters feed ClusterStats.
func (c *Client) specCTS(g common.GTrxID) (common.CSN, bool) {
	if g.Node == c.node {
		return 0, false
	}
	c.specReads.Add(1)
	c.floorMu.Lock()
	floor := c.peerFloor[g.Node]
	c.floorMu.Unlock()
	if g.Trx == 0 || g.Trx > floor {
		return 0, false
	}
	c.specHits.Add(1)
	return common.CSNMin, true
}

// SpecCTSStats returns (hits, lookups) of the speculative CTS path.
func (c *Client) SpecCTSStats() (hits, reads int64) {
	return c.specHits.Load(), c.specReads.Load()
}

// Begin allocates a TIT slot for a new local transaction and returns its
// global id. It fails with ErrTITFull when every slot is pinned by an
// unrecycled transaction.
func (c *Client) Begin(trx common.TrxID) (common.GTrxID, error) {
	if c.closed.Load() {
		return common.GTrxID{}, fmt.Errorf("txfusion: node %d: %w", c.node, common.ErrClosed)
	}
	c.mu.Lock()
	if len(c.free) == 0 {
		c.mu.Unlock()
		// Opportunistic recycle against the last seen global min view,
		// then retry once.
		c.Recycle(c.LastGMV())
		c.mu.Lock()
		if len(c.free) == 0 {
			c.mu.Unlock()
			// The id was never admitted, so no version will ever carry it:
			// finish it immediately or it would pin the recycle floor.
			c.markFinished(trx)
			return common.GTrxID{}, ErrTITFull
		}
	}
	slot := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.inUse[slot] = trx
	c.mu.Unlock()

	off := slotOff(slot)
	// Bump the reuse generation first so a racing remote reader of the
	// old generation sees a version mismatch, never a half-written slot.
	ver, err := c.tit.LocalRead64(off + slotVersion)
	if err != nil {
		return common.GTrxID{}, err
	}
	ver++
	must(c.tit.LocalWrite64(off+slotVersion, ver))
	must(c.tit.LocalWrite64(off+slotCTS, uint64(common.CSNInit)))
	must(c.tit.LocalWrite64(off+slotRef, 0))
	must(c.tit.LocalWrite64(off+slotTrx, uint64(trx)))
	must(c.tit.LocalWrite64(off+slotActive, 1))
	return common.GTrxID{Node: c.node, Trx: trx, Slot: slot, Version: uint32(ver)}, nil
}

// ErrTITFull reports TIT slot exhaustion; the caller should back off and let
// recycling catch up.
var ErrTITFull = fmt.Errorf("txfusion: transaction information table full")

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Commit publishes the transaction's CTS in its TIT slot, making it globally
// committed/inactive. It returns true if a waiter flagged the slot (§4.3.2);
// the caller must then notify Lock Fusion.
func (c *Client) Commit(g common.GTrxID, cts common.CSN) (waiters bool, err error) {
	if g.Node != c.node {
		return false, fmt.Errorf("txfusion: commit of foreign transaction %v", g)
	}
	if c.closed.Load() {
		return false, fmt.Errorf("txfusion: node %d: %w", c.node, common.ErrClosed)
	}
	off := slotOff(g.Slot)
	must(c.tit.LocalWrite64(off+slotCTS, uint64(cts)))
	ref, err := c.tit.LocalRead64(off + slotRef)
	if err != nil {
		return false, err
	}
	return ref != 0, nil
}

// Finish releases the slot of an aborted transaction (its page versions have
// already been rolled back, so nothing can reference the slot). It returns
// true if a waiter flagged the slot.
func (c *Client) Finish(g common.GTrxID) (waiters bool) {
	off := slotOff(g.Slot)
	ref, err := c.tit.LocalRead64(off + slotRef)
	if err != nil {
		panic(err)
	}
	c.freeSlot(g.Slot)
	return ref != 0
}

func (c *Client) freeSlot(slot uint32) {
	off := slotOff(slot)
	must(c.tit.LocalWrite64(off+slotActive, 0))
	must(c.tit.LocalWrite64(off+slotTrx, 0))
	c.mu.Lock()
	trx, ok := c.inUse[slot]
	if ok {
		delete(c.inUse, slot)
		c.free = append(c.free, slot)
	}
	c.mu.Unlock()
	if ok {
		// A slot is freed only for a recycled (GMV-covered) or aborted
		// transaction — exactly the floor's CSNMin contract.
		c.markFinished(trx)
	}
}

// slotState is one decoded TIT slot.
type slotState struct {
	trx     common.TrxID
	cts     common.CSN
	version uint64
	active  bool
}

func decodeSlot(b []byte) slotState {
	return slotState{
		trx:     common.TrxID(binary.LittleEndian.Uint64(b[slotTrx:])),
		cts:     common.CSN(binary.LittleEndian.Uint64(b[slotCTS:])),
		version: binary.LittleEndian.Uint64(b[slotVersion:]),
		active:  binary.LittleEndian.Uint64(b[slotActive:]) == 1,
	}
}

// GetTrxCTS implements the TIT half of Algorithm 1: resolve the effective
// CTS of transaction g. CSNMin means "slot reused ⇒ committed and visible to
// all"; CSNMax means "still active ⇒ visible to nobody else". A committed
// CTS is cached (it is immutable).
func (c *Client) GetTrxCTS(g common.GTrxID) (common.CSN, error) {
	if c.cfg.CTSCacheSize > 0 {
		c.cacheMu.Lock()
		cts, ok := c.ctsCache[g]
		c.cacheMu.Unlock()
		if ok {
			return cts, nil
		}
	}
	var buf [SlotSize]byte
	if g.Node == c.node {
		if err := c.tit.LocalRead(slotOff(g.Slot), buf[:]); err != nil {
			return 0, err
		}
		s := decodeSlot(buf[:])
		if s.version != uint64(g.Version) || s.trx != g.Trx || !s.active {
			fenced, err := c.readFence(g.Node)
			if err != nil || fenced {
				return common.CSNMax, nil
			}
			c.cacheCTS(g, common.CSNMin)
			return common.CSNMin, nil
		}
		if s.cts == common.CSNInit {
			return common.CSNMax, nil
		}
		c.cacheCTS(g, s.cts)
		return s.cts, nil
	}
	// Speculative path: the owner's published recycle floor may already
	// prove g finished — committed below the GMV bound (visible to every
	// view) or aborted — with no round-trip at all.
	tok := c.tr.Start()
	if cts, ok := c.specCTS(g); ok {
		c.tr.Observe(trace.StageCTSSpec, tok)
		return cts, nil
	}
	// One-sided RDMA read of the remote slot (Algorithm 1 line 11), with the
	// owner's header (recovery fence + recycle floor) riding the same
	// doorbell batch: the mismatch rule needs the fence anyway, and the
	// floor refreshes the speculative cache for free. The read chain is
	// idempotent, so the Conn retries it.
	var hdr [headerSize]byte
	segs := []rdma.Seg{
		{Off: hdrFence, Buf: hdr[:]},
		{Off: slotOff(g.Slot), Buf: buf[:]},
	}
	if err := c.fabric.ReadV(g.Node, RegionTIT, segs); err != nil {
		return 0, err
	}
	fenced := binary.LittleEndian.Uint64(hdr[hdrFence:]) == 1
	if !fenced {
		c.noteFloor(g.Node, common.TrxID(binary.LittleEndian.Uint64(hdr[hdrSpecFloor:])))
	}
	s := decodeSlot(buf[:])
	if s.version != uint64(g.Version) || s.trx != g.Trx || !s.active {
		// Slot reused or freed. With the owner's recovery fence down,
		// the transaction finished and its slot was recycled, which
		// only happens once its changes are visible to every view
		// (lines 13-15) — or it aborted, leaving no surviving row
		// version. With the fence up, the owning node crashed and the
		// transaction's fate is unknown until its recovery completes:
		// treat it as active.
		if fenced {
			return common.CSNMax, nil
		}
		c.cacheCTS(g, common.CSNMin)
		return common.CSNMin, nil
	}
	if s.cts == common.CSNInit {
		return common.CSNMax, nil // still active (lines 17-19)
	}
	c.cacheCTS(g, s.cts)
	return s.cts, nil
}

// GetTrxCTSBatch resolves the effective CTS of many transactions at once:
// cached entries are served locally, the rest are grouped by owning node and
// fetched with ONE doorbell-batched ReadV per node — the node's recovery
// fence word rides in the same batch as the slots, so the mismatch rule
// needs no second fabric op. Transactions whose owner is unreachable are
// omitted from the result; the caller applies its membership fate rule.
//
// Committed CTSes and slot-recycled (CSNMin) outcomes are cached exactly as
// in GetTrxCTS. The CSNMin negative cache is sound because TIT recycling is
// GMV-gated: a slot is reused only once its transaction's changes are
// visible to every present and future view, so "recycled" can never later
// resolve to anything a reader would treat differently.
func (c *Client) GetTrxCTSBatch(gs []common.GTrxID) map[common.GTrxID]common.CSN {
	out := make(map[common.GTrxID]common.CSN, len(gs))
	var remote map[common.NodeID][]common.GTrxID
	for _, g := range gs {
		if _, done := out[g]; done {
			continue
		}
		if c.cfg.CTSCacheSize > 0 {
			c.cacheMu.Lock()
			cts, ok := c.ctsCache[g]
			c.cacheMu.Unlock()
			if ok {
				out[g] = cts
				continue
			}
		}
		if g.Node == c.node {
			if cts, err := c.GetTrxCTS(g); err == nil {
				out[g] = cts
			}
			continue
		}
		if cts, ok := c.specCTS(g); ok {
			out[g] = cts
			continue
		}
		if remote == nil {
			remote = make(map[common.NodeID][]common.GTrxID)
		}
		if !containsG(remote[g.Node], g) {
			remote[g.Node] = append(remote[g.Node], g)
		}
	}
	for node, ids := range remote {
		var hdr [headerSize]byte
		bufs := make([]byte, len(ids)*SlotSize)
		segs := make([]rdma.Seg, 0, len(ids)+1)
		segs = append(segs, rdma.Seg{Off: hdrFence, Buf: hdr[:]})
		for i, g := range ids {
			segs = append(segs, rdma.Seg{Off: slotOff(g.Slot), Buf: bufs[i*SlotSize : (i+1)*SlotSize]})
		}
		// Idempotent one-sided read chain: retried whole on transient faults.
		if err := c.fabric.ReadV(node, RegionTIT, segs); err != nil {
			continue
		}
		fenced := binary.LittleEndian.Uint64(hdr[hdrFence:]) == 1
		if !fenced {
			c.noteFloor(node, common.TrxID(binary.LittleEndian.Uint64(hdr[hdrSpecFloor:])))
		}
		for i, g := range ids {
			s := decodeSlot(bufs[i*SlotSize:])
			switch {
			case s.version != uint64(g.Version) || s.trx != g.Trx || !s.active:
				if fenced {
					out[g] = common.CSNMax
				} else {
					out[g] = common.CSNMin
					c.cacheCTS(g, common.CSNMin)
				}
			case s.cts == common.CSNInit:
				out[g] = common.CSNMax
			default:
				out[g] = s.cts
				c.cacheCTS(g, s.cts)
			}
		}
	}
	return out
}

func containsG(gs []common.GTrxID, g common.GTrxID) bool {
	for _, x := range gs {
		if x == g {
			return true
		}
	}
	return false
}

// readFence reads the recovery fence of node's TIT region.
func (c *Client) readFence(node common.NodeID) (bool, error) {
	if node == c.node {
		v, err := c.tit.LocalRead64(hdrFence)
		return v == 1, err
	}
	v, err := c.fabric.Read64(node, RegionTIT, hdrFence)
	return v == 1, err
}

func (c *Client) cacheCTS(g common.GTrxID, cts common.CSN) {
	if c.cfg.CTSCacheSize == 0 {
		return
	}
	c.cacheMu.Lock()
	if len(c.ctsCache) >= c.cfg.CTSCacheSize {
		// Cheap wholesale reset; entries repopulate on demand.
		c.ctsCache = make(map[common.GTrxID]common.CSN)
	}
	c.ctsCache[g] = cts
	c.cacheMu.Unlock()
}

// IsActive reports whether transaction g is still running (used by the
// RLock protocol to test the row lock field, §4.3.2).
func (c *Client) IsActive(g common.GTrxID) (bool, error) {
	cts, err := c.GetTrxCTS(g)
	if err != nil {
		return false, err
	}
	return cts == common.CSNMax, nil
}

// SetRefFlag marks transaction g's TIT slot as awaited, with a one-sided
// CAS on the slot's ref word (§4.3.2). It returns false if the slot no
// longer holds the same generation (the holder already finished).
func (c *Client) SetRefFlag(g common.GTrxID) (bool, error) {
	off := slotOff(g.Slot)
	if g.Node == c.node {
		// Local waiter (same node, different transaction).
		var buf [SlotSize]byte
		if err := c.tit.LocalRead(off, buf[:]); err != nil {
			return false, err
		}
		s := decodeSlot(buf[:])
		if s.version != uint64(g.Version) || s.trx != g.Trx || !s.active || s.cts != common.CSNInit {
			return false, nil
		}
		must(c.tit.LocalWrite64(off+slotRef, 1))
		return true, nil
	}
	var buf [SlotSize]byte
	if err := c.fabric.Read(g.Node, RegionTIT, off, buf[:]); err != nil {
		return false, err
	}
	s := decodeSlot(buf[:])
	if s.version != uint64(g.Version) || s.trx != g.Trx || !s.active || s.cts != common.CSNInit {
		return false, nil
	}
	// The 0->1 CAS is idempotent, so a retried attempt that already landed
	// just observes ref=1 and reports success.
	if _, err := c.fabric.CAS64(g.Node, RegionTIT, off+slotRef, 0, 1); err != nil {
		return false, err
	}
	return true, nil
}

// --- timestamps ---------------------------------------------------------

// NextCommitCSN draws a fresh commit timestamp from the TSO (§4.1: "usually
// fetched using a one-sided RDMA operation ... completed within several
// microseconds"), group-allocating under concurrency: committers on one node
// that arrive while a fetch is in flight are combined into a single
// fetch-add of k, and each takes a distinct CSN from the returned block.
//
// CSN-ordering argument: a block CSN is handed only to committers that
// registered BEFORE the group's fetch-add executed, so for any snapshot read
// that observed TSO=V before that fetch-add, every CSN in the block is > V —
// the same anomaly window as k individual fetch-adds. (Pre-fetching blocks
// for FUTURE committers would break this: a commit could then receive a CSN
// at or below an already-open read view.)
func (c *Client) NextCommitCSN() (common.CSN, error) {
	cts, _, err := c.NextCommitCSNEx()
	return cts, err
}

// tsoSoloLimit bounds concurrent direct fetch-adds: past it, arrivals fold
// into the flat-combining queue so the oracle word sees bounded contention.
const tsoSoloLimit = 2

// NextCommitCSNEx is NextCommitCSN plus classification: grouped reports
// whether the CSN came out of a flat-combined round (one fetch-add shared by
// k committers) rather than a solo allocation.
//
// Adaptive switching: with the grant queue empty — no combiner leader, no
// waiters, few solo fetch-adds outstanding — a committer skips the combiner
// entirely and issues its own fetch-add, saving the grant channel and two
// handoffs; under queue depth the existing flat-combining path takes over.
// Both paths draw the CSN from a fetch-add that executes after the committer
// arrived, so the CSN-ordering argument below is unchanged, and a solo
// commit still costs exactly one PMFS atomic.
func (c *Client) NextCommitCSNEx() (common.CSN, bool, error) {
	tok := c.tr.Start()
	c.tsoMu.Lock()
	if !c.tsoLeader && len(c.tsoWaiters) == 0 && c.tsoSolos < tsoSoloLimit {
		c.tsoSolos++
		c.tsoMu.Unlock()
		prev, err := c.fabric.FetchAdd64(common.PMFSNode, RegionTSO, 0, 1)
		c.tsoMu.Lock()
		c.tsoSolos--
		c.tsoMu.Unlock()
		if err != nil {
			return 0, false, err
		}
		cts := common.CSN(prev + 1)
		c.noteTS(cts)
		c.tr.Observe(trace.StageTSOSolo, tok)
		return cts, false, nil
	}
	ch := make(chan tsoGrant, 1)
	c.tsoWaiters = append(c.tsoWaiters, ch)
	if c.tsoLeader {
		c.tsoMu.Unlock()
		return c.tsoWait(ch, tok)
	}
	c.tsoLeader = true
	c.tsoMu.Unlock()

	// Combiner leader: drain registration rounds until no committer is
	// waiting. Each round issues ONE fetch-add of the round's group size.
	for {
		c.tsoMu.Lock()
		batch := c.tsoWaiters
		c.tsoWaiters = nil
		if len(batch) == 0 {
			c.tsoLeader = false
			c.tsoMu.Unlock()
			break
		}
		c.tsoMu.Unlock()
		// A dropped fetch-add never executed (injection fails ops before
		// they run), so retrying cannot double-advance the oracle; and even
		// if it did, timestamps only need to be unique and monotonic, not
		// dense.
		prev, err := c.fabric.FetchAdd64(common.PMFSNode, RegionTSO, 0, uint64(len(batch)))
		if err == nil {
			c.noteTS(common.CSN(prev + uint64(len(batch))))
		}
		grouped := len(batch) > 1
		for i, w := range batch {
			if err != nil {
				w <- tsoGrant{err: err}
			} else {
				w <- tsoGrant{cts: common.CSN(prev + 1 + uint64(i)), grouped: grouped}
			}
		}
	}
	return c.tsoWait(ch, tok)
}

// tsoWait collects this committer's grant and observes the allocation into
// the tracer aggregate, classified solo vs group.
func (c *Client) tsoWait(ch chan tsoGrant, tok trace.Token) (common.CSN, bool, error) {
	g := <-ch
	if g.err == nil {
		st := trace.StageTSOSolo
		if g.grouped {
			st = trace.StageTSOGroup
		}
		c.tr.Observe(st, tok)
	}
	return g.cts, g.grouped, g.err
}

// CurrentReadCSN returns a snapshot timestamp for a new read view. Under the
// Linear Lamport optimization a request reuses the last fetched timestamp if
// that fetch completed after the request arrived; otherwise it performs a
// one-sided TSO read.
func (c *Client) CurrentReadCSN() (common.CSN, error) {
	if c.cfg.LamportReuse {
		arrived := time.Now()
		c.tsMu.Lock()
		if c.cachedTS != 0 && c.fetchedAt.After(arrived) {
			ts := c.cachedTS
			c.tsMu.Unlock()
			return ts, nil
		}
		c.tsMu.Unlock()
	}
	v, err := c.fabric.Read64(common.PMFSNode, RegionTSO, 0)
	if err != nil {
		return 0, err
	}
	ts := common.CSN(v)
	c.noteTS(ts)
	return ts, nil
}

func (c *Client) noteTS(ts common.CSN) {
	now := time.Now()
	c.tsMu.Lock()
	if ts > c.cachedTS {
		c.cachedTS = ts
		c.fetchedAt = now
	}
	c.tsMu.Unlock()
}

// ViewBound returns the largest timestamp this node has seen the TSO return
// or grant (every TSO read and every own commit CSN feeds it), which is a
// lower bound on anything the TSO returns from now on: a version committed at
// or below it is visible to a read view taken at any later moment. Zero means
// no bound is available — nothing observed yet, or Lamport reuse is off (the
// ablation fetches a timestamp per statement).
func (c *Client) ViewBound() common.CSN {
	if !c.cfg.LamportReuse {
		return 0
	}
	c.tsMu.Lock()
	defer c.tsMu.Unlock()
	return c.cachedTS
}

// --- read views & recycling ----------------------------------------------

// OpenView registers an active read view at snapshot csn (for min-view
// accounting) and returns it.
func (c *Client) OpenView(csn common.CSN) common.CSN {
	c.mu.Lock()
	c.views[csn]++
	c.mu.Unlock()
	return csn
}

// CloseView unregisters a read view.
func (c *Client) CloseView(csn common.CSN) {
	c.mu.Lock()
	if n := c.views[csn]; n <= 1 {
		delete(c.views, csn)
	} else {
		c.views[csn] = n - 1
	}
	c.mu.Unlock()
}

// MinLocalView returns the smallest snapshot any local view holds, or CSNMax
// when the node holds none.
func (c *Client) MinLocalView() common.CSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	min := common.CSNMax
	for v := range c.views {
		if v < min {
			min = v
		}
	}
	return min
}

// ReportMinView sends the node's minimum view to Transaction Fusion — CSNMax
// when it holds none, for which the server substitutes the TSO's current
// value — receives the global minimum, recycles eligible TIT slots, and
// returns the global minimum (the background thread of §4.1 "TIT recycle").
func (c *Client) ReportMinView() (common.CSN, error) {
	req := make([]byte, 11)
	req[0] = opReportMinView
	binary.LittleEndian.PutUint16(req[1:], uint16(c.node))
	binary.LittleEndian.PutUint64(req[3:], uint64(c.MinLocalView()))
	// Min-view reports are idempotent (the server folds an absolute value),
	// so lost responses are safely retried.
	resp, err := c.fabric.Call(common.PMFSNode, ServiceTxF, req)
	if err != nil {
		return 0, err
	}
	if len(resp) < 16 {
		return 0, common.ErrShortBuffer
	}
	gmv := common.CSN(binary.LittleEndian.Uint64(resp))
	c.noteTS(common.CSN(binary.LittleEndian.Uint64(resp[8:])))
	c.mu.Lock()
	if gmv > c.lastGMV {
		c.lastGMV = gmv
	}
	c.mu.Unlock()
	c.Recycle(gmv)
	return gmv, nil
}

// LastGMV returns the most recently learned global minimum view.
func (c *Client) LastGMV() common.CSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastGMV
}

// Recycle frees every committed slot whose CTS is at or below gmv: under
// the visibility rule "cts <= view ⇒ visible", such changes are visible to
// every present and future view (all views are >= gmv), so a reuse-version
// mismatch can safely be interpreted as CSNMin.
func (c *Client) Recycle(gmv common.CSN) int {
	c.mu.Lock()
	slots := make([]uint32, 0, len(c.inUse))
	for s := range c.inUse {
		slots = append(slots, s)
	}
	c.mu.Unlock()
	n := 0
	for _, s := range slots {
		cts, err := c.tit.LocalRead64(slotOff(s) + slotCTS)
		if err != nil {
			continue
		}
		if common.CSN(cts) != common.CSNInit && common.CSN(cts) <= gmv {
			c.freeSlot(s)
			n++
		}
	}
	return n
}

// Close fences the client after a node crash.
func (c *Client) Close() { c.closed.Store(true) }

// ActiveSlots returns the number of allocated TIT slots (tests/inspection).
func (c *Client) ActiveSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inUse)
}
