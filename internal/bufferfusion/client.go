package bufferfusion

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
	"polardbmp/internal/page"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
	"polardbmp/internal/trace"
)

// ForceLogFunc forces the node's redo log to durable storage at least up to
// upTo, the highest LSN covering the page being pushed; the engine installs
// it so a dirty page never reaches the DBP ahead of its log (§4.2: "before
// flushing a dirty page to the DBP, PolarDB-MP also forces the corresponding
// logs to storage"). upTo == 0 means the page carries unlogged-only changes
// (purges, CTS stamps) or predates FlushLSN tracking; implementations must
// then fall back to a conservative full-log force.
type ForceLogFunc func(upTo common.LSN)

// Frame is one LBP slot: the decoded page, its coherence metadata (the
// version the last PLock grant requires, and r_addr, the page's DBP frame),
// and the local latch used by the engine.
type Frame struct {
	// Mu is the node-local page latch (intra-node concurrency; PLocks
	// handle inter-node access).
	Mu sync.RWMutex
	// Pg is the cached page. Access under Mu.
	Pg *page.Page
	// Dirty marks local modifications not yet pushed to the DBP. Access
	// under Mu.
	Dirty bool
	// FlushLSN is the end LSN of the newest log record reflected in Pg (0
	// if every unflushed change is unlogged, e.g. purges and CTS stamps).
	// Forcing the log to FlushLSN — rather than to the whole log's end —
	// is what makes a revoke-time flush of an already-durable page free.
	// Access under Mu.
	FlushLSN common.LSN

	id       common.PageID
	dbpFrame int // r_addr: the page's DBP frame; -1 if unknown
	pins     int
	lruEl    *list.Element
	// want is the LLSN the page's last PLock grant carried, until the copy
	// is seen to have reached it (then 0): a copy below it is stale and
	// refreshes before the next Get returns it. It is the copy's only
	// validity state.
	want atomic.Uint64

	// loading is closed once the initial fetch completes; loadErr is
	// valid after that (the channel close is the happens-before edge).
	loading chan struct{}
	loadErr error
}

// ID returns the frame's page id.
func (f *Frame) ID() common.PageID { return f.id }

// Client is a node's local buffer pool (LBP) with Buffer Fusion coherence.
type Client struct {
	node        common.NodeID
	fabric      rdma.Conn
	store       storage.API
	capacity    int
	forceLog    ForceLogFunc
	storageMode bool
	closed      atomic.Bool
	tr          *trace.Tracer

	mu     sync.Mutex
	frames map[common.PageID]*Frame
	lru    *list.List // *Frame, most-recent at back

	// Stats for harnesses.
	LocalHits    metrics.Counter
	DBPReads     metrics.Counter
	StorageReads metrics.Counter
	PushesOut    metrics.Counter
	Refreshes    metrics.Counter
}

// NewClient creates the node's LBP with the given frame capacity.
func NewClient(ep *rdma.Endpoint, fabric *rdma.Fabric, store storage.API, capacity int) *Client {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Client{
		node:     ep.Node(),
		fabric:   fabric.From(ep.Node()),
		store:    store,
		capacity: capacity,
		frames:   make(map[common.PageID]*Frame),
		lru:      list.New(),
	}
}

// SetForceLog installs the engine's log-force hook (must be set before the
// node serves traffic).
func (c *Client) SetForceLog(f ForceLogFunc) { c.forceLog = f }

// SetRetryPolicy rebinds the client's Conn to retry under p.
func (c *Client) SetRetryPolicy(p common.RetryPolicy) { c.fabric = c.fabric.WithRetry(p) }

// SetTracer attaches the node's commit-path tracer (nil disables). Page
// fills are observed as StageFrameDBP (one-sided read from the distributed
// buffer pool) or StageFrameStorage; LBP hits as StageFrameLocal.
func (c *Client) SetTracer(t *trace.Tracer) { c.tr = t }

// FetchKind classifies where GetDeadlineEx found the page.
type FetchKind uint8

const (
	// FetchHit: the page was cached and valid in the LBP (a stale frame
	// refreshed in place also reports FetchHit; the refresh itself is
	// observed in the stage aggregates).
	FetchHit FetchKind = iota
	// FetchDBP: filled from the distributed buffer pool.
	FetchDBP
	// FetchStorage: filled from shared storage.
	FetchStorage
)

// SetStorageMode switches the client to the log-ship baseline's page-sync
// path (Taurus-MM, §2.3): pushes write page images to shared storage,
// fetches read them back (plus a log-read charge standing in for the replay
// Taurus-MM performs), and the DBP is not used.
func (c *Client) SetStorageMode(on bool) { c.storageMode = on }

// Get returns the frame for pg, pinned. The caller must Unpin it. The
// caller must already hold the page's PLock in a covering mode: the grant
// that brought the lock is what validated the cached copy, and no other node
// can write the page while the lock is held.
func (c *Client) Get(pg common.PageID) (*Frame, error) {
	f, _, err := c.GetDeadlineEx(pg, common.Deadline{})
	return f, err
}

// GetDeadlineEx is Get bounded by the caller's transaction budget, plus
// classification of where the page came from: the fetch refuses to start
// once dl has expired and its fabric verbs, retry backoff, and storage reads
// all stop at the budget with ErrDeadlineExceeded. A concurrent fetch of the
// same page by another caller is awaited without a bound — it runs under
// that caller's own budget. A zero deadline is unbounded.
func (c *Client) GetDeadlineEx(pg common.PageID, dl common.Deadline) (*Frame, FetchKind, error) {
	if err := dl.Err(); err != nil {
		return nil, FetchHit, err
	}
	if c.closed.Load() {
		return nil, FetchHit, fmt.Errorf("bufferfusion: node %d LBP: %w", c.node, common.ErrClosed)
	}
	tok := c.tr.Start()
	c.mu.Lock()
	f := c.frames[pg]
	if f == nil {
		if err := c.makeRoomLocked(); err != nil {
			c.mu.Unlock()
			return nil, FetchHit, err
		}
		// Eviction drops c.mu: a concurrent getter may have installed pg.
		f = c.frames[pg]
	}
	if f != nil {
		f.pins++
		c.lru.MoveToBack(f.lruEl)
		c.mu.Unlock()
		<-f.loading
		if f.loadErr != nil {
			c.Unpin(f)
			return nil, FetchHit, f.loadErr
		}
		if err := c.ensureValid(f, dl); err != nil {
			c.Unpin(f)
			return nil, FetchHit, err
		}
		c.LocalHits.Inc()
		c.tr.Observe(trace.StageFrameLocal, tok)
		return f, FetchHit, nil
	}

	// Install a placeholder so concurrent getters of the same page wait
	// on one fetch instead of stampeding, and release c.mu across the
	// fetch I/O.
	f = &Frame{id: pg, dbpFrame: -1, pins: 1, loading: make(chan struct{})}
	f.lruEl = c.lru.PushBack(f)
	c.frames[pg] = f
	c.mu.Unlock()

	p, dbpFrame, kind, err := c.fetch(pg, dl)
	if err != nil {
		return nil, kind, c.failLoad(f, err)
	}
	f.Pg = p
	f.dbpFrame = dbpFrame
	close(f.loading)
	return f, kind, nil
}

// failLoad publishes a failed initial fetch and removes the placeholder.
func (c *Client) failLoad(f *Frame, err error) error {
	f.loadErr = err
	close(f.loading)
	c.mu.Lock()
	if c.frames[f.id] == f {
		delete(c.frames, f.id)
		c.lru.Remove(f.lruEl)
	}
	f.pins--
	c.mu.Unlock()
	return err
}

// Granted records the LLSN a PLock grant carried for pg (the PLock client's
// PageVersions hook): a cached copy below it refreshes before its next Get
// returns it. A page not cached needs nothing — its next Get fetches the
// current image.
func (c *Client) Granted(pg common.PageID, llsn common.LLSN) {
	c.mu.Lock()
	f := c.frames[pg]
	c.mu.Unlock()
	if f == nil {
		return
	}
	for {
		old := f.want.Load()
		if uint64(llsn) <= old || f.want.CompareAndSwap(old, uint64(llsn)) {
			return
		}
	}
}

// PageLLSN reports the version of pg's cached copy (the PLock client's
// PageVersions hook, read when an X lock is released): the copy's LLSN, or
// the version its last grant required if the copy has not been refreshed to
// it yet. ok is false when pg is not cached.
func (c *Client) PageLLSN(pg common.PageID) (common.LLSN, bool) {
	c.mu.Lock()
	f := c.frames[pg]
	c.mu.Unlock()
	if f == nil {
		return 0, false
	}
	select {
	case <-f.loading:
	default:
		return 0, false
	}
	if f.loadErr != nil {
		return 0, false
	}
	f.Mu.RLock()
	llsn := f.Pg.LLSN
	f.Mu.RUnlock()
	return max(llsn, common.LLSN(f.want.Load())), true
}

// ensureValid brings a cached copy up to the version its last PLock grant
// required. The refresh re-reads the copy's DBP frame if that still holds an
// image of the page at least that new; otherwise the frame was recycled or
// the page left the DBP, and the page is fetched afresh.
func (c *Client) ensureValid(f *Frame, dl common.Deadline) error {
	want := f.want.Load()
	if want == 0 {
		return nil
	}
	f.Mu.Lock()
	defer f.Mu.Unlock()
	// A dirty copy holds changes made under this node's X lock after its
	// grant, so no grant can name a newer version; it must never be
	// overwritten.
	if uint64(f.Pg.LLSN) >= want || f.Dirty {
		f.want.CompareAndSwap(want, 0)
		return nil
	}
	c.Refreshes.Inc()
	if f.dbpFrame >= 0 && !c.storageMode {
		tok := c.tr.Start()
		if p, err := c.readDBPFrame(f.dbpFrame, dl); err == nil && p.ID == f.id && uint64(p.LLSN) >= want {
			f.Pg = p
			f.want.CompareAndSwap(want, 0)
			c.tr.Observe(trace.StageFrameDBP, tok)
			return nil
		}
	}
	// The fetched image is the page's newest, whatever its LLSN: the grant
	// may have named a version no image carries (unknown, or an unlogged
	// change lost with the DBP in a full-cluster crash).
	p, dbpFrame, _, err := c.fetch(f.id, dl)
	if err != nil {
		return err
	}
	f.Pg, f.dbpFrame = p, dbpFrame
	f.want.CompareAndSwap(want, 0)
	return nil
}

// fetch implements the page-access path of §4.2: DBP lookup, then one
// one-sided read on hit; storage read then push on miss, so peers find the
// page in the DBP. In storage mode it is the storage read alone. A non-zero
// dl bounds every verb, retry backoff, and storage read.
func (c *Client) fetch(pg common.PageID, dl common.Deadline) (*page.Page, int, FetchKind, error) {
	tok := c.tr.Start()
	if c.storageMode {
		c.StorageReads.Inc()
		p, err := c.readPageFromStorage(pg, dl)
		if err != nil {
			return nil, -1, FetchStorage, err
		}
		// Log-ship model: obtaining the latest page costs the page read
		// plus fetching and applying the newer log records (Taurus-MM's
		// page-store + log-replay path, §2.3).
		var replay [512]byte
		_, _ = c.store.LogRead(c.node, c.store.LogStartLSN(c.node), replay[:])
		c.tr.Observe(trace.StageFrameStorage, tok)
		return p, storagePseudoFrame, FetchStorage, nil
	}
	// Lookup is a pure locate, so transient faults retry safely.
	resp, err := c.fabric.WithDeadline(dl).Call(common.PMFSNode, ServiceBuf, bufReq(opLookup, c.node, pg, 0, 0))
	if err != nil {
		return nil, -1, FetchDBP, err
	}
	if frame, ok := frameOf(resp); ok {
		p, err := c.readDBPFrame(frame, dl)
		if err == nil && p.ID == pg {
			c.DBPReads.Inc()
			c.tr.Observe(trace.StageFrameDBP, tok)
			return p, frame, FetchDBP, nil
		}
		if err != nil && !errors.Is(err, common.ErrNotFound) {
			// The read itself failed: the frame may well hold the newest
			// image, and storage only an older one (or none).
			return nil, -1, FetchDBP, err
		}
		// The read succeeded and the frame holds another page or none: it
		// was recycled between lookup and read; retry once via storage
		// (the eviction wrote the page there).
	}
	c.StorageReads.Inc()
	p, err := c.readPageFromStorage(pg, dl)
	if err != nil {
		return nil, -1, FetchStorage, err
	}
	// Register the loaded page into the DBP so peers can reach it without
	// storage I/O. The push is clean: the image came from storage, so
	// eviction need not write it back.
	frame, err := c.pushImage(p, true)
	if err != nil {
		return nil, -1, FetchStorage, err
	}
	c.tr.Observe(trace.StageFrameStorage, tok)
	return p, frame, FetchStorage, nil
}

// frameBufPool recycles frame-sized scratch buffers for DBP reads and
// pushes. The fabric copies synchronously and page.Unmarshal copies out, so
// a buffer is reusable the moment the verb returns — on the single-box
// simulator these per-transfer allocations were a measurable GC tax.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, page.FrameSize+4); return &b }, // +4: image length prefix
}

func (c *Client) readDBPFrame(frame int, dl common.Deadline) (*page.Page, error) {
	bp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bp)
	buf := (*bp)[:page.FrameSize]
	if err := c.fabric.WithDeadline(dl).Read(common.PMFSNode, RegionDBP, frame*page.FrameSize, buf); err != nil {
		return nil, err
	}
	n := imageLen(buf)
	if n == 0 {
		return nil, fmt.Errorf("bufferfusion: empty DBP frame %d: %w", frame, common.ErrNotFound)
	}
	return page.Unmarshal(buf[4:n])
}

// readPageFromStorage reads and decodes pg's image from shared storage,
// bounded by dl.
func (c *Client) readPageFromStorage(pg common.PageID, dl common.Deadline) (*page.Page, error) {
	var img []byte
	// storage.API is no fabric verb: retried here, under the Conn's policy.
	if err := common.RetryDeadline(c.fabric.RetryPolicy(), dl, func() (e error) {
		img, e = c.store.ReadPage(pg)
		return e
	}); err != nil {
		return nil, err
	}
	return page.Unmarshal(img)
}

// pushImage writes p into its (pinned) DBP frame and completes the push.
// clean marks a push whose image was just read from storage (fetch
// registration); dirty pushes (modified frames) pass false so the server
// marks the entry newer than its storage image.
func (c *Client) pushImage(p *page.Page, clean bool) (int, error) {
	cleanAux := uint32(0)
	if clean {
		cleanAux = 1
	}
	if c.closed.Load() {
		// A zombie goroutine of a crashed node must never publish its
		// stale pages over the restarted incarnation's recovery.
		return -1, fmt.Errorf("bufferfusion: node %d LBP: %w", c.node, common.ErrClosed)
	}
	// Build [imageLen u32][image] in one pooled buffer: the frame layout
	// the DBP expects, with no intermediate copy.
	bp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bp)
	buf, err := p.AppendTo(append((*bp)[:0], 0, 0, 0, 0))
	if err != nil {
		return -1, err
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	img := buf[4:]
	if c.storageMode {
		// A storage.API call, retried here under the Conn's policy.
		if err := common.Retry(c.fabric.RetryPolicy(), func() error {
			return c.store.WritePage(p.ID, img)
		}); err != nil {
			return -1, err
		}
		return storagePseudoFrame, nil
	}
	// A repeated prepare for the same (node, page) re-pins the same push (the
	// server keeps one pin per node), so a retry converges instead of leaking
	// frames.
	resp, err := c.fabric.Call(common.PMFSNode, ServiceBuf, bufReq(opPreparePush, c.node, p.ID, 0, 0))
	if err != nil {
		return -1, err
	}
	frame, ok := frameOf(resp)
	if !ok {
		return -1, fmt.Errorf("bufferfusion: prepare-push of page %d failed", p.ID)
	}
	if err := c.fabric.Write(common.PMFSNode, RegionDBP, frame*page.FrameSize, buf); err != nil {
		return -1, err
	}
	if _, err := c.fabric.Call(common.PMFSNode, ServiceBuf, bufReq(opPushed, c.node, p.ID, uint32(frame), cleanAux)); err != nil {
		return -1, err
	}
	return frame, nil
}

// NewPage installs a freshly allocated page (engine-created, under X PLock)
// as a dirty frame, pinned.
func (c *Client) NewPage(p *page.Page) (*Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.makeRoomLocked(); err != nil {
		return nil, err
	}
	if c.frames[p.ID] != nil {
		return nil, fmt.Errorf("bufferfusion: page %d already cached", p.ID)
	}
	f := &Frame{id: p.ID, dbpFrame: -1, Pg: p, Dirty: true, pins: 1, loading: closedChan}
	f.lruEl = c.lru.PushBack(f)
	c.frames[p.ID] = f
	return f, nil
}

// closedChan is a pre-closed channel for frames born fully loaded.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Unpin releases one pin.
func (c *Client) Unpin(f *Frame) {
	c.mu.Lock()
	if f.pins <= 0 {
		c.mu.Unlock()
		panic("bufferfusion: unpin of unpinned frame")
	}
	f.pins--
	c.mu.Unlock()
}

// Push flushes f to the DBP (forcing redo first through the engine hook).
// Caller holds f.Mu and the page's X PLock.
func (c *Client) Push(f *Frame) error {
	if !f.Dirty {
		return nil
	}
	if c.forceLog != nil {
		c.forceLog(f.FlushLSN)
	}
	frame, err := c.pushImage(f.Pg, false)
	if err != nil {
		return err
	}
	f.dbpFrame = frame
	f.Dirty = false
	c.PushesOut.Inc()
	return nil
}

// PushByID flushes the named page if it is cached and dirty (the PLock
// revoke path: flush before the lock leaves the node).
func (c *Client) PushByID(pg common.PageID) error {
	c.mu.Lock()
	f := c.frames[pg]
	if f != nil {
		f.pins++
	}
	c.mu.Unlock()
	if f == nil {
		return nil
	}
	defer c.Unpin(f)
	f.Mu.Lock()
	defer f.Mu.Unlock()
	return c.Push(f)
}

// PushMany flushes every named page that is cached and dirty through ONE
// doorbell-batched fabric exchange: a single log force covering the newest
// record on any of the pages, one CallBatch of prepare-push RPCs, one
// vectored write carrying every image, and one CallBatch of push
// completions — 2 RPCs + 1 one-sided write for the whole set instead of
// 2 RPCs + 1 write per page. Callers must hold a covering X PLock on every
// page (the commit-time stamp path does). Frames are latched in sorted page
// order for the whole exchange; that cannot deadlock engine paths because
// leaf-to-leaf btree transitions release before re-acquiring and
// latch-coupled descents only ever pair an internal page with one child.
func (c *Client) PushMany(ids []common.PageID) error {
	if c.storageMode {
		// The log-ship baseline has no DBP frames to batch into.
		var firstErr error
		for _, pg := range ids {
			if err := c.PushByID(pg); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	c.mu.Lock()
	fs := make([]*Frame, 0, len(ids))
	seen := make(map[common.PageID]bool, len(ids))
	for _, pg := range ids {
		if seen[pg] {
			continue
		}
		seen[pg] = true
		if f := c.frames[pg]; f != nil {
			f.pins++
			fs = append(fs, f)
		}
	}
	c.mu.Unlock()
	sort.Slice(fs, func(i, j int) bool { return fs[i].id < fs[j].id })
	for _, f := range fs {
		f.Mu.Lock()
	}
	done := func() {
		for _, f := range fs {
			f.Mu.Unlock()
		}
		for _, f := range fs {
			c.Unpin(f)
		}
	}
	var dirty []*Frame
	var upTo common.LSN
	for _, f := range fs {
		if f.Dirty {
			dirty = append(dirty, f)
			if f.FlushLSN > upTo {
				upTo = f.FlushLSN
			}
		}
	}
	if len(dirty) == 0 {
		done()
		return nil
	}
	if c.closed.Load() {
		done()
		return fmt.Errorf("bufferfusion: node %d LBP: %w", c.node, common.ErrClosed)
	}
	if c.forceLog != nil {
		c.forceLog(upTo)
	}
	// Phase 1: one batched prepare-push pins every target frame.
	reqs := make([][]byte, len(dirty))
	for i, f := range dirty {
		reqs[i] = bufReq(opPreparePush, c.node, f.id, 0, 0)
	}
	resps, err := c.fabric.CallBatch(common.PMFSNode, ServiceBuf, reqs)
	if err != nil {
		// One page's failure (e.g. all frames pinned) fails a whole batch;
		// give each page an independent chance on the per-page path.
		var firstErr error
		for _, f := range dirty {
			if e := c.Push(f); e != nil && firstErr == nil {
				firstErr = e
			}
		}
		done()
		return firstErr
	}
	frameNos := make([]int, len(dirty))
	for i, f := range dirty {
		fr, ok := frameOf(resps[i])
		if !ok {
			done()
			return fmt.Errorf("bufferfusion: prepare-push of page %d failed", f.id)
		}
		frameNos[i] = fr
	}
	// Phase 2: one vectored write lands every image in its pinned frame.
	// Images are built in pooled buffers; the doorbell copies synchronously,
	// so they all return to the pool right after the verb.
	segs := make([]rdma.Seg, len(dirty))
	bufs := make([]*[]byte, 0, len(dirty))
	werr := error(nil)
	for i, f := range dirty {
		bp := frameBufPool.Get().(*[]byte)
		bufs = append(bufs, bp)
		buf, merr := f.Pg.AppendTo(append((*bp)[:0], 0, 0, 0, 0))
		if merr != nil {
			werr = merr
			break
		}
		binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
		segs[i] = rdma.Seg{Off: frameNos[i] * page.FrameSize, Buf: buf}
	}
	if werr == nil {
		werr = c.fabric.WriteV(common.PMFSNode, RegionDBP, segs)
	}
	for _, bp := range bufs {
		frameBufPool.Put(bp)
	}
	// Phase 3: one batched completion — sent even after a failed write so
	// the server-side pins taken in phase 1 never leak. A failed write
	// leaves Dirty set; the revoke-time flush redoes the page later (the
	// stale frame content is unreachable: we still hold the X PLock, and
	// imageLen guards eviction against a never-written frame).
	preqs := make([][]byte, len(dirty))
	for i, f := range dirty {
		// aux=0: batched pushes carry modified images, never clean ones.
		preqs[i] = bufReq(opPushed, c.node, f.id, uint32(frameNos[i]), 0)
	}
	_, perr := c.fabric.CallBatch(common.PMFSNode, ServiceBuf, preqs)
	if werr == nil && perr == nil {
		for i, f := range dirty {
			f.dbpFrame = frameNos[i]
			f.Dirty = false
			c.PushesOut.Inc()
		}
	}
	done()
	if werr != nil {
		return werr
	}
	return perr
}

// makeRoomLocked evicts the coldest unpinned frames until the LBP is below
// capacity, pushing each first if dirty (a page may leave the LBP only once
// it is in the DBP, §4.2). c.mu is dropped around each push, so concurrent
// installers re-check the room after every eviction. A full LBP whose frames
// are all pinned is overload: the caller's transaction backs off and
// retries. Called with c.mu held; c.mu is held on return.
func (c *Client) makeRoomLocked() error {
	for wasted := 0; len(c.frames) >= c.capacity; {
		if wasted == 8 {
			return fmt.Errorf("bufferfusion: node %d eviction livelock: %w", c.node, common.ErrOverloaded)
		}
		var victim *Frame
		for el := c.lru.Front(); el != nil; el = el.Next() {
			if f := el.Value.(*Frame); f.pins == 0 {
				victim = f
				break
			}
		}
		if victim == nil {
			return fmt.Errorf("bufferfusion: node %d LBP full with all %d frames pinned: %w",
				c.node, len(c.frames), common.ErrOverloaded)
		}
		victim.pins++ // guard against concurrent eviction while we flush
		c.mu.Unlock()
		victim.Mu.Lock()
		err := c.Push(victim)
		victim.Mu.Unlock()
		c.mu.Lock()
		victim.pins--
		if err != nil {
			return err
		}
		if victim.pins > 0 || c.frames[victim.id] != victim {
			wasted++ // re-pinned or already gone; pick another victim
			continue
		}
		delete(c.frames, victim.id)
		c.lru.Remove(victim.lruEl)
	}
	return nil
}

// FlushAll pushes every dirty frame (checkpoint / clean shutdown).
func (c *Client) FlushAll() error {
	c.mu.Lock()
	var fs []*Frame
	for _, f := range c.frames {
		f.pins++
		fs = append(fs, f)
	}
	c.mu.Unlock()
	var firstErr error
	for _, f := range fs {
		f.Mu.Lock()
		if err := c.Push(f); err != nil && firstErr == nil {
			firstErr = err
		}
		f.Mu.Unlock()
		c.Unpin(f)
	}
	return firstErr
}

// Close fences the client after a node crash.
func (c *Client) Close() { c.closed.Store(true) }

// Len returns the number of cached frames.
func (c *Client) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// Contains reports whether pg is cached (tests).
func (c *Client) Contains(pg common.PageID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[pg] != nil
}
