// Package bufferfusion implements Buffer Fusion (§4.2): a distributed
// buffer pool (DBP) in PMFS disaggregated shared memory plus per-node local
// buffer pools (LBP) whose copies are validated when a PLock is granted.
//
// Data pages move between nodes through the DBP: a node pushes a modified
// page into a DBP frame with a one-sided RDMA write (after forcing its redo
// to storage) before its X PLock leaves the node; a node that later needs
// the page pulls the frame with a one-sided read. Validity travels with the
// lock: the X release carries the page's LLSN, the next grant hands it to
// the grantee, and a cached copy whose LLSN is below it refreshes before it
// is read (DESIGN.md §4). The paper's remote invalid flags are not needed:
// a copy can only be read under a PLock, and a lock that was never given
// back means no other node wrote the page. Storage I/O happens only on a
// DBP miss or background flush, which is the architectural difference from
// log-replay designs like Taurus-MM (§2.3).
package bufferfusion

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
	"polardbmp/internal/page"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
	"polardbmp/internal/wire"
)

// Fabric names.
const (
	RegionDBP  = "pmfs.dbp"     // frame array on PMFS
	ServiceBuf = "bufferfusion" // PMFS RPC service
)

// storagePseudoFrame marks a copy that came from storage in storage mode,
// where no DBP frame exists.
const storagePseudoFrame = 0x7FFFFFFF

// RPC ops.
const (
	opLookup      = 1 // node, page -> found?, frame
	opPreparePush = 2 // node, page -> frame (pinned)
	opPushed      = 3 // node, page, frame -> ok (unpin)
)

// Server is the PMFS side of Buffer Fusion: the DBP frames and the page
// directory locating, per page, its frame (§4.2, Figure 4). The directory is
// striped by page id, each stripe owning a disjoint share of the DBP frames
// (its own free list and LRU), so concurrent pushes and lookups from
// different nodes only contend when they touch the same stripe.
type Server struct {
	gate   common.EpochGate
	dbp    *rdma.Region
	store  storage.API
	frames int

	stripes []*bufStripe

	// Stats for the figure harnesses and ablations.
	Hits      metrics.Counter
	Misses    metrics.Counter
	Pushes    metrics.Counter
	Evictions metrics.Counter
}

// bufStripe is one directory shard. Frames in [base, base+count) belong to
// this stripe exclusively; free holds global frame numbers.
type bufStripe struct {
	mu    sync.Mutex
	base  int
	count int
	dir   map[common.PageID]*dirEntry
	byFr  []*dirEntry // frame-base -> entry (nil = free)
	free  []int
	lru   *list.List // *dirEntry, most-recent at back
}

// bufStripeCount picks the shard count: tiny pools (unit tests sized to
// force eviction) keep a single stripe so global LRU order is preserved;
// bench-sized pools shard 8 ways.
func bufStripeCount(frames int) int {
	if frames < 256 {
		return 1
	}
	return 8
}

func (s *Server) stripeFor(pg common.PageID) *bufStripe {
	return s.stripes[uint64(pg)%uint64(len(s.stripes))]
}

type dirEntry struct {
	page  common.PageID
	frame int
	// pinned holds the nodes with a push in flight (prepare-push done,
	// completion not yet): one pin per node, so a retried prepare or a
	// retried completion neither leaks nor steals a pin. A pinned frame is
	// never evicted.
	pinned map[common.NodeID]struct{}
	// dirty marks a frame newer than the storage image: eviction and
	// FlushAll write back only dirty frames, so an image that came from
	// storage (a clean push) is never written back.
	dirty bool
	lruEl *list.Element
}

// NewServer attaches Buffer Fusion to the PMFS endpoint with the given
// number of DBP frames.
func NewServer(ep *rdma.Endpoint, fabric *rdma.Fabric, store storage.API, frames int) *Server {
	if frames <= 0 {
		frames = 4096
	}
	s := &Server{
		dbp:    ep.RegisterRegion(RegionDBP, frames*page.FrameSize),
		store:  store,
		frames: frames,
	}
	s.initStripes()
	ep.Serve(ServiceBuf, s.handle)
	return s
}

func (s *Server) initStripes() {
	n := bufStripeCount(s.frames)
	s.stripes = make([]*bufStripe, n)
	base := 0
	for i := 0; i < n; i++ {
		count := s.frames / n
		if i < s.frames%n {
			count++
		}
		st := &bufStripe{
			base:  base,
			count: count,
			dir:   make(map[common.PageID]*dirEntry),
			byFr:  make([]*dirEntry, count),
			lru:   list.New(),
		}
		st.free = make([]int, count)
		for j := range st.free {
			st.free[j] = base + count - 1 - j
		}
		s.stripes[i] = st
		base += count
	}
}

// SetEpochGate installs the membership epoch gate: stamped requests from
// evicted incarnations are rejected with ErrStaleEpoch before they can
// push or pin pages.
func (s *Server) SetEpochGate(g common.EpochGate) { s.gate = g }

func bufReq(op byte, node common.NodeID, pg common.PageID, frame uint32, aux uint32) []byte {
	b := wire.AppendU16(append(make([]byte, 0, 19+common.StampLen), op), uint16(node))
	return wire.AppendU32(wire.AppendU32(wire.AppendU64(b, uint64(pg)), frame), aux)
}

// frameResp answers a lookup or a prepare-push: [found u8][frame u32].
func frameResp(fr int, found bool) []byte {
	if !found {
		return make([]byte, 5)
	}
	return wire.AppendU32(append(make([]byte, 0, 5), 1), uint32(fr))
}

// frameOf decodes a frameResp: the frame, and whether there is one.
func frameOf(resp []byte) (int, bool) {
	rd := wire.NewReader(resp)
	found, fr := rd.U8() == 1, int(rd.U32())
	return fr, found && rd.Done() == nil
}

func (s *Server) handle(req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	op := rd.U8()
	node := common.NodeID(rd.U16())
	pg := common.PageID(rd.U64())
	frame, aux := rd.U32(), rd.U32()
	if op < opLookup || op > opPushed {
		return nil, fmt.Errorf("bufferfusion: op %d: %w", op, common.ErrNoService)
	}
	if aux > 1 {
		return nil, fmt.Errorf("bufferfusion: push-clean flag %d: %w", aux, common.ErrCorrupt)
	}
	epoch := rd.Epoch()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("bufferfusion: %w", err)
	}
	if s.gate != nil {
		if err := s.gate(node, epoch); err != nil {
			return nil, err
		}
	}
	switch op {
	case opLookup:
		fr, ok := s.lookup(pg)
		return frameResp(fr, ok), nil
	case opPreparePush:
		fr, err := s.preparePush(node, pg)
		if err != nil {
			return nil, err
		}
		return frameResp(fr, true), nil
	default: // opPushed
		s.pushed(node, pg, int(frame), aux == 1)
		return nil, nil
	}
}

// lookup locates the page's frame, if present.
func (s *Server) lookup(pg common.PageID) (int, bool) {
	st := s.stripeFor(pg)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.dir[pg]
	if e == nil {
		s.Misses.Inc()
		return 0, false
	}
	st.lru.MoveToBack(e.lruEl)
	s.Hits.Inc()
	return e.frame, true
}

// preparePush pins (allocating if needed) the page's frame so the caller can
// one-sided-write the image without racing eviction.
func (s *Server) preparePush(node common.NodeID, pg common.PageID) (int, error) {
	st := s.stripeFor(pg)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.dir[pg]
	if e == nil {
		fr, err := s.allocFrameLocked(st)
		if err != nil {
			return 0, err
		}
		e = &dirEntry{page: pg, frame: fr}
		e.lruEl = st.lru.PushBack(e)
		st.dir[pg] = e
		st.byFr[fr-st.base] = e
	}
	e.pin(node)
	st.lru.MoveToBack(e.lruEl)
	return e.frame, nil
}

func (e *dirEntry) pin(node common.NodeID) {
	if e.pinned == nil {
		e.pinned = make(map[common.NodeID]struct{})
	}
	e.pinned[node] = struct{}{}
}

// pushed completes a push: unpin and mark dirty. clean marks a push whose
// image was just read from storage (a fetch registering the page in the
// DBP): storage already holds that image, so it refrains from dirtying the
// entry and eviction skips the write-back. It never downgrades an
// already-dirty entry, whose newer image storage does not have yet. A
// repeated completion finds no pin to drop and changes nothing.
func (s *Server) pushed(node common.NodeID, pg common.PageID, frame int, clean bool) {
	st := s.stripeFor(pg)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.dir[pg]
	if e == nil || e.frame != frame {
		return
	}
	delete(e.pinned, node)
	if !clean {
		e.dirty = true
	}
	s.Pushes.Inc()
}

// allocFrameLocked returns a free frame from st, evicting the stripe's
// coldest unpinned page if necessary (its image goes to storage first; its
// redo was already forced before the push, per §4.2).
func (s *Server) allocFrameLocked(st *bufStripe) (int, error) {
	if n := len(st.free); n > 0 {
		fr := st.free[n-1]
		st.free = st.free[:n-1]
		return fr, nil
	}
	for el := st.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*dirEntry)
		if len(e.pinned) > 0 {
			continue
		}
		s.evictLocked(st, e)
		return e.frame, nil
	}
	return 0, fmt.Errorf("bufferfusion: all %d DBP frames of stripe pinned", st.count)
}

// evictLocked removes e from the directory, flushing its image to storage if
// dirty. Copy holders need no notice: the next grant of the page tells them
// whether their copy is current, and the storage image is the page's
// newest once the frame is gone.
func (s *Server) evictLocked(st *bufStripe, e *dirEntry) {
	s.Evictions.Inc()
	if e.dirty {
		img := make([]byte, page.FrameSize)
		if err := s.dbp.LocalRead(e.frame*page.FrameSize, img); err == nil {
			if n := imageLen(img); n > 0 {
				_ = s.store.WritePage(e.page, img[4:n])
			}
		}
	}
	delete(st.dir, e.page)
	st.byFr[e.frame-st.base] = nil
	st.lru.Remove(e.lruEl)
}

// imageLen returns the end offset (including the 4-byte length prefix) of
// the page image at the front of a frame, or 0 if the frame doesn't hold a
// valid image. Frame layout: pages are written with a 4-byte length prefix
// by the LBP client; the image itself is frame[4:imageLen].
func imageLen(frame []byte) int {
	if len(frame) < 4 {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(frame))
	if n <= 0 || n+4 > len(frame) {
		return 0
	}
	return n + 4
}

// FlushAll writes every dirty DBP page to storage (checkpoint support).
func (s *Server) FlushAll() error {
	for _, st := range s.stripes {
		st.mu.Lock()
		var entries []*dirEntry
		for _, e := range st.dir {
			if e.dirty {
				entries = append(entries, e)
			}
		}
		st.mu.Unlock()
		for _, e := range entries {
			img := make([]byte, page.FrameSize)
			st.mu.Lock()
			cur := st.dir[e.page]
			if cur != e {
				st.mu.Unlock()
				continue
			}
			err := s.dbp.LocalRead(e.frame*page.FrameSize, img)
			e.dirty = false
			st.mu.Unlock()
			if err != nil {
				return err
			}
			if n := imageLen(img); n > 0 {
				if err := s.store.WritePage(e.page, img[4:n]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Reclaim force-evicts the given pages from the DBP during takeover: dirty
// images are flushed to storage, pins are cleared (only the crashed node
// could have held them — callers pass pages the dead node held exclusively),
// and the frames return to the free list. Survivors re-fetch from storage
// after the takeover replay rebuilds the images there: the fence lift makes
// every cached copy of these pages stale (lockfusion's dropNode).
func (s *Server) Reclaim(pages []common.PageID) {
	for _, pg := range pages {
		st := s.stripeFor(pg)
		st.mu.Lock()
		e := st.dir[pg]
		if e == nil {
			st.mu.Unlock()
			continue
		}
		e.pinned = nil
		s.evictLocked(st, e)
		st.free = append(st.free, e.frame)
		st.mu.Unlock()
	}
}

// Reset discards all DBP state (full-cluster crash simulation: disaggregated
// memory is volatile; only storage survives).
func (s *Server) Reset() {
	for _, st := range s.stripes {
		st.mu.Lock()
		st.dir = make(map[common.PageID]*dirEntry)
		st.byFr = make([]*dirEntry, st.count)
		st.free = st.free[:0]
		for i := st.base + st.count - 1; i >= st.base; i-- {
			st.free = append(st.free, i)
		}
		st.lru.Init()
		st.mu.Unlock()
	}
}

// Contains reports whether the DBP currently holds pg (tests).
func (s *Server) Contains(pg common.PageID) bool {
	st := s.stripeFor(pg)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dir[pg] != nil
}

// Len returns the number of pages resident in the DBP.
func (s *Server) Len() int {
	n := 0
	for _, st := range s.stripes {
		st.mu.Lock()
		n += len(st.dir)
		st.mu.Unlock()
	}
	return n
}
