package bufferfusion

import (
	"errors"
	"fmt"
	"testing"

	"polardbmp/internal/common"
	"polardbmp/internal/page"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
)

type bfCluster struct {
	fabric *rdma.Fabric
	store  *storage.Store
	srv    *Server
	lbp    []*Client
}

func newBFCluster(t testing.TB, nodes, dbpFrames, lbpFrames int) *bfCluster {
	t.Helper()
	fabric := rdma.NewFabric(rdma.Latency{})
	store := storage.New(storage.Latency{})
	srv := NewServer(fabric.Register(common.PMFSNode), fabric, store, dbpFrames)
	c := &bfCluster{fabric: fabric, store: store, srv: srv}
	for i := 0; i < nodes; i++ {
		ep := fabric.Register(common.NodeID(i + 1))
		c.lbp = append(c.lbp, NewClient(ep, fabric, store, lbpFrames))
	}
	return c
}

func makePage(id common.PageID, val string) *page.Page {
	p := page.New(id, 1, page.TypeLeaf)
	p.InsertVersion([]byte("k"), page.Version{Value: []byte(val)})
	p.LLSN = 1
	return p
}

func storePage(t testing.TB, s *storage.Store, p *page.Page) {
	t.Helper()
	img, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(p.ID, img); err != nil {
		t.Fatal(err)
	}
}

func TestGetFromStorageAndDBPRegistration(t *testing.T) {
	c := newBFCluster(t, 2, 16, 16)
	storePage(t, c.store, makePage(1, "v0"))

	f, err := c.lbp[0].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Pg.Find([]byte("k")).Head().Value) != "v0" {
		t.Fatal("wrong content from storage")
	}
	c.lbp[0].Unpin(f)
	if !c.srv.Contains(1) {
		t.Fatal("loaded page not registered in DBP")
	}
	if c.lbp[0].StorageReads.Load() != 1 {
		t.Fatalf("storage reads = %d", c.lbp[0].StorageReads.Load())
	}

	// Node 2 must now get it from the DBP, not storage.
	before := c.store.Stats().PageReads.Load()
	f2, err := c.lbp[1].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	c.lbp[1].Unpin(f2)
	if c.store.Stats().PageReads.Load() != before {
		t.Fatal("second node read from storage instead of DBP")
	}
	if c.lbp[1].DBPReads.Load() != 1 {
		t.Fatalf("DBP reads = %d", c.lbp[1].DBPReads.Load())
	}
}

// headValue reads key k's newest value from a cached frame.
func headValue(f *Frame) string { return string(f.Pg.Find([]byte("k")).Head().Value) }

// writePage has client c change page pg to val at LLSN llsn and push it, as
// an X holder does before its lock leaves the node.
func writePage(t testing.TB, c *Client, pg common.PageID, val string, llsn common.LLSN) {
	t.Helper()
	f, err := c.Get(pg)
	if err != nil {
		t.Fatal(err)
	}
	f.Mu.Lock()
	f.Pg.InsertVersion([]byte("k"), page.Version{Value: []byte(val)})
	f.Pg.LLSN = llsn
	f.Dirty = true
	err = c.Push(f)
	f.Mu.Unlock()
	c.Unpin(f)
	if err != nil {
		t.Fatal(err)
	}
}

// getValue reads key k of page pg through client c.
func getValue(t testing.TB, c *Client, pg common.PageID) string {
	t.Helper()
	f, err := c.Get(pg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Unpin(f)
	return headValue(f)
}

// TestGrantRefreshesStaleCopy: a push changes nothing on a peer; the peer's
// next grant names the pushed LLSN, and its copy refreshes from the DBP frame
// it already knows, without a lookup or a storage read.
func TestGrantRefreshesStaleCopy(t *testing.T) {
	c := newBFCluster(t, 2, 16, 16)
	storePage(t, c.store, makePage(1, "v0"))
	if getValue(t, c.lbp[1], 1) != "v0" {
		t.Fatal("node 2 first read")
	}
	writePage(t, c.lbp[0], 1, "v1", 2)

	// Node 2's lock never left it: no other node can have written, so the
	// copy is served as it is.
	if got := getValue(t, c.lbp[1], 1); got != "v0" {
		t.Fatalf("node 2 reads %q with no grant in between, want its copy v0", got)
	}
	// A grant naming a version the copy has already reached changes nothing.
	c.lbp[1].Granted(1, 1)
	if got := getValue(t, c.lbp[1], 1); got != "v0" || c.lbp[1].Refreshes.Load() != 0 {
		t.Fatalf("node 2 reads %q after a grant at its own version (refreshes %d)", got, c.lbp[1].Refreshes.Load())
	}

	lookups := c.srv.Hits.Load() + c.srv.Misses.Load()
	c.lbp[1].Granted(1, 2)
	if got := getValue(t, c.lbp[1], 1); got != "v1" {
		t.Fatalf("node 2 sees %q after a grant at LLSN 2, want v1", got)
	}
	if c.lbp[1].Refreshes.Load() != 1 {
		t.Fatalf("refreshes = %d", c.lbp[1].Refreshes.Load())
	}
	if got := c.srv.Hits.Load() + c.srv.Misses.Load(); got != lookups {
		t.Fatalf("the refresh looked the page up (%d lookups, want %d): its DBP frame still held it", got, lookups)
	}
	// Storage was never touched by the transfer.
	if c.store.Stats().PageWrites.Load() != 1 { // only the initial storePage
		t.Fatalf("page writes = %d", c.store.Stats().PageWrites.Load())
	}
	if llsn, ok := c.lbp[1].PageLLSN(1); !ok || llsn != 2 {
		t.Fatalf("node 2 PageLLSN = %d, %v; want 2", llsn, ok)
	}
}

func TestNewPageAndPush(t *testing.T) {
	c := newBFCluster(t, 2, 16, 16)
	p := makePage(7, "fresh")
	f, err := c.lbp[0].NewPage(p)
	if err != nil {
		t.Fatal(err)
	}
	f.Mu.Lock()
	if err := c.lbp[0].Push(f); err != nil {
		t.Fatal(err)
	}
	f.Mu.Unlock()
	c.lbp[0].Unpin(f)
	// Peer reads it from the DBP even though storage never saw it.
	f2, err := c.lbp[1].Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if string(f2.Pg.Find([]byte("k")).Head().Value) != "fresh" {
		t.Fatal("peer got wrong content")
	}
	c.lbp[1].Unpin(f2)
	if c.store.Stats().PageReads.Load() != 0 {
		t.Fatal("peer read storage for a DBP-resident page")
	}
}

func TestDBPEvictionFlushesToStorage(t *testing.T) {
	c := newBFCluster(t, 1, 4, 64)
	// Create 8 pages through one node; DBP holds only 4.
	for i := 1; i <= 8; i++ {
		p := makePage(common.PageID(i), fmt.Sprintf("v%d", i))
		f, err := c.lbp[0].NewPage(p)
		if err != nil {
			t.Fatal(err)
		}
		f.Mu.Lock()
		if err := c.lbp[0].Push(f); err != nil {
			t.Fatal(err)
		}
		f.Mu.Unlock()
		c.lbp[0].Unpin(f)
	}
	if c.srv.Len() > 4 {
		t.Fatalf("DBP holds %d pages with 4 frames", c.srv.Len())
	}
	if c.srv.Evictions.Load() < 4 {
		t.Fatalf("evictions = %d", c.srv.Evictions.Load())
	}
	// Evicted pages must be readable from storage.
	for i := 1; i <= 4; i++ {
		if !c.store.HasPage(common.PageID(i)) && !c.srv.Contains(common.PageID(i)) {
			t.Fatalf("page %d lost", i)
		}
	}
}

// TestGrantAfterDBPEvictionRefetches: a peer pushes a new version, the DBP
// evicts the page to storage and hands its frame to another page. A grant
// naming the new version finds the copy's old frame holding the wrong page
// and fetches afresh from storage.
func TestGrantAfterDBPEvictionRefetches(t *testing.T) {
	c := newBFCluster(t, 2, 2, 16)
	storePage(t, c.store, makePage(1, "v0"))
	if getValue(t, c.lbp[1], 1) != "v0" {
		t.Fatal("node 2 first read")
	}
	writePage(t, c.lbp[0], 1, "v1", 2)
	for i := 2; i <= 5; i++ {
		nf, err := c.lbp[0].NewPage(makePage(common.PageID(i), "x"))
		if err != nil {
			t.Fatal(err)
		}
		nf.Mu.Lock()
		err = c.lbp[0].Push(nf)
		nf.Mu.Unlock()
		c.lbp[0].Unpin(nf)
		if err != nil {
			t.Fatal(err)
		}
	}
	if c.srv.Contains(1) {
		t.Fatal("page 1 survived a flood of a 2-frame DBP")
	}
	reads := c.lbp[1].StorageReads.Load()
	c.lbp[1].Granted(1, 2)
	if got := getValue(t, c.lbp[1], 1); got != "v1" {
		t.Fatalf("node 2 refetched %q, want v1", got)
	}
	if c.lbp[1].StorageReads.Load() != reads+1 {
		t.Fatalf("storage reads %d, want %d", c.lbp[1].StorageReads.Load(), reads+1)
	}
}

// TestLBPOverflowIsLegal is ROADMAP 4(e): two getters on one node share a
// 2-frame LBP. Eviction drops the LBP mutex while it pushes a dirty victim,
// so both may be making room at once; neither may overfill the pool or
// install a second frame for one page. A getter whose victims keep being
// re-pinned is shed with ErrOverloaded, the class a transaction retries.
func TestLBPOverflowIsLegal(t *testing.T) {
	c := newBFCluster(t, 1, 64, 2)
	const pages = 8
	for i := 1; i <= pages; i++ {
		storePage(t, c.store, makePage(common.PageID(i), "v"))
	}
	lbp := c.lbp[0]
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := 0; i < 400; i++ {
				pg := common.PageID((i*(g+3))%pages + 1)
				f, err := lbp.Get(pg)
				if errors.Is(err, common.ErrOverloaded) {
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				f.Mu.Lock()
				f.Dirty = true // the next eviction of this frame pushes it
				f.Mu.Unlock()
				lbp.Unpin(f)
				if n := lbp.Len(); n > 2 {
					errs <- fmt.Errorf("LBP holds %d frames with capacity 2", n)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLBPAllPinnedIsOverload: a full LBP whose every frame is pinned sheds
// the getter with ErrOverloaded, the retryable class a transaction backs off
// on, instead of failing it with a bare error string.
func TestLBPAllPinnedIsOverload(t *testing.T) {
	c := newBFCluster(t, 1, 64, 2)
	for i := 1; i <= 3; i++ {
		storePage(t, c.store, makePage(common.PageID(i), "v"))
	}
	for i := 1; i <= 2; i++ {
		if _, err := c.lbp[0].Get(common.PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.lbp[0].Get(3); !errors.Is(err, common.ErrOverloaded) {
		t.Fatalf("get with every frame pinned: %v, want ErrOverloaded", err)
	}
}

func TestLBPEvictionPushesDirty(t *testing.T) {
	c := newBFCluster(t, 1, 64, 2)
	var frames []*Frame
	for i := 1; i <= 2; i++ {
		p := makePage(common.PageID(i), "d")
		f, err := c.lbp[0].NewPage(p)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		c.lbp[0].Unpin(f) // dirty, unpinned
	}
	// Installing a third page forces eviction of a dirty one -> DBP push.
	storePage(t, c.store, makePage(3, "v3"))
	f3, err := c.lbp[0].Get(3)
	if err != nil {
		t.Fatal(err)
	}
	c.lbp[0].Unpin(f3)
	if c.lbp[0].Len() > 2 {
		t.Fatalf("LBP len = %d", c.lbp[0].Len())
	}
	if !c.srv.Contains(1) && !c.srv.Contains(2) {
		t.Fatal("evicted dirty page not pushed to DBP")
	}
}

func TestFlushAllAndServerFlush(t *testing.T) {
	c := newBFCluster(t, 1, 16, 16)
	p := makePage(1, "dirty")
	f, _ := c.lbp[0].NewPage(p)
	c.lbp[0].Unpin(f)
	if err := c.lbp[0].FlushAll(); err != nil {
		t.Fatal(err)
	}
	if !c.srv.Contains(1) {
		t.Fatal("FlushAll did not push to DBP")
	}
	if err := c.srv.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if !c.store.HasPage(1) {
		t.Fatal("server FlushAll did not reach storage")
	}
	img, _ := c.store.ReadPage(1)
	q, err := page.Unmarshal(img)
	if err != nil || string(q.Find([]byte("k")).Head().Value) != "dirty" {
		t.Fatalf("storage content wrong: %v", err)
	}
}

func TestServerResetSimulatesDBPLoss(t *testing.T) {
	c := newBFCluster(t, 1, 16, 16)
	storePage(t, c.store, makePage(1, "v0"))
	f, _ := c.lbp[0].Get(1)
	c.lbp[0].Unpin(f)
	c.srv.Reset()
	if c.srv.Contains(1) || c.srv.Len() != 0 {
		t.Fatal("reset did not clear the DBP")
	}
}

func TestConcurrentGetSinglePage(t *testing.T) {
	c := newBFCluster(t, 1, 16, 16)
	storePage(t, c.store, makePage(1, "v0"))
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			f, err := c.lbp[0].Get(1)
			if err == nil {
				c.lbp[0].Unpin(f)
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// The stampede must coalesce into one storage read.
	if got := c.store.Stats().PageReads.Load(); got != 1 {
		t.Fatalf("storage reads = %d, want 1", got)
	}
}

func TestGetMissingPage(t *testing.T) {
	c := newBFCluster(t, 1, 16, 16)
	if _, err := c.lbp[0].Get(999); err == nil {
		t.Fatal("get of missing page should fail")
	}
	// A failed load must not leave a poisoned frame behind.
	if c.lbp[0].Len() != 0 {
		t.Fatal("failed load left a frame")
	}
	storePage(t, c.store, makePage(999, "late"))
	f, err := c.lbp[0].Get(999)
	if err != nil {
		t.Fatal(err)
	}
	c.lbp[0].Unpin(f)
}

// --- storage-mode (log-ship baseline path) ----------------------------------

func newStorageModeCluster(t testing.TB, nodes int) *bfCluster {
	t.Helper()
	fabric := rdma.NewFabric(rdma.Latency{})
	store := storage.New(storage.Latency{})
	srv := NewServer(fabric.Register(common.PMFSNode), fabric, store, 16)
	c := &bfCluster{fabric: fabric, store: store, srv: srv}
	for i := 0; i < nodes; i++ {
		ep := fabric.Register(common.NodeID(i + 1))
		cl := NewClient(ep, fabric, store, 16)
		cl.SetStorageMode(true)
		c.lbp = append(c.lbp, cl)
	}
	return c
}

func TestStorageModePushGoesToStorage(t *testing.T) {
	c := newStorageModeCluster(t, 2)
	p := makePage(1, "v1")
	f, err := c.lbp[0].NewPage(p)
	if err != nil {
		t.Fatal(err)
	}
	f.Mu.Lock()
	if err := c.lbp[0].Push(f); err != nil {
		t.Fatal(err)
	}
	f.Mu.Unlock()
	c.lbp[0].Unpin(f)
	// The page image landed in shared storage, not a DBP frame.
	if !c.store.HasPage(1) {
		t.Fatal("push did not reach storage")
	}
	// A peer fetch reads storage (and pays the log-replay read).
	reads := c.store.Stats().PageReads.Load()
	logReads := c.store.Stats().LogReads.Load()
	f2, err := c.lbp[1].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(f2.Pg.Find([]byte("k")).Head().Value) != "v1" {
		t.Fatal("peer read wrong content")
	}
	c.lbp[1].Unpin(f2)
	if c.store.Stats().PageReads.Load() != reads+1 {
		t.Fatal("peer fetch did not read storage")
	}
	if c.store.Stats().LogReads.Load() != logReads+1 {
		t.Fatal("peer fetch did not charge the log-replay read")
	}
}

// TestStorageModeGrantRefreshes: in storage mode a stale copy has no DBP
// frame to re-read; the grant's LLSN sends it to storage.
func TestStorageModeGrantRefreshes(t *testing.T) {
	c := newStorageModeCluster(t, 2)
	storePage(t, c.store, makePage(1, "v0"))
	if getValue(t, c.lbp[1], 1) != "v0" {
		t.Fatal("node 2 first read")
	}
	// Node 1 updates and pushes through storage; node 2's next grant names
	// the new version.
	writePage(t, c.lbp[0], 1, "v1", 5)
	c.lbp[1].Granted(1, 5)
	if got := getValue(t, c.lbp[1], 1); got != "v1" {
		t.Fatalf("node 2 sees %q after storage-mode push", got)
	}
}
