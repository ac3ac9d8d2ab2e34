package storage_test

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
	"polardbmp/internal/wal"
	"polardbmp/internal/wire"
)

// remoteHarness is a seed process (fabric + store + storage service) and a
// satellite process (fabric + Remote) joined over a real TCP socket.
type remoteHarness struct {
	seed *storage.Store
	rem  *storage.Remote
	fa   *rdma.Fabric
	fb   *rdma.Fabric
	srv  *rdma.FabricServer
}

func newRemoteHarness(t *testing.T) *remoteHarness {
	t.Helper()
	fa := rdma.NewFabric(rdma.Latency{})
	fb := rdma.NewFabric(rdma.Latency{})
	seed := storage.New(storage.Latency{})
	storage.Serve(fa.Register(common.PMFSNode), seed)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rdma.ServeFabric(fa, lis, "seed", &wire.NetCounters{})
	peer, err := rdma.DialPeer(fb, lis.Addr().String(), rdma.PeerConfig{Name: "sat", Counters: &wire.NetCounters{}})
	if err != nil {
		t.Fatal(err)
	}
	fb.AttachDefault(peer)
	t.Cleanup(func() {
		_ = peer.Close()
		srv.Close()
	})
	return &remoteHarness{seed: seed, rem: storage.NewRemote(fb.From(7)), fa: fa, fb: fb, srv: srv}
}

func TestRemotePageAndMetaOps(t *testing.T) {
	h := newRemoteHarness(t)
	r := h.rem

	id := r.AllocPage()
	if ids := r.PageIDs(); len(ids) != 0 {
		t.Fatalf("page ids %v before the write", ids)
	}
	if _, err := r.ReadPage(id); !errors.Is(err, common.ErrNotFound) {
		t.Fatalf("read missing page: %v", err)
	}
	img := bytes.Repeat([]byte{0xab}, 128)
	if err := r.WritePage(id, img); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadPage(id)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("read back: %v %d bytes", err, len(got))
	}
	if ids := r.PageIDs(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("page ids %v", ids)
	}
	// Allocations at the seed and through the proxy share one id space.
	if h.seed.AllocPage() == id || r.AllocPage() == id {
		t.Fatal("alloc returned a duplicate id")
	}

	if r.GetMeta("missing") != nil {
		t.Fatal("missing meta must be nil")
	}
	r.PutMeta("ckpt", []byte("v1"))
	if v := r.GetMeta("ckpt"); string(v) != "v1" {
		t.Fatalf("meta %q", v)
	}
	// Empty values survive the nil/present distinction across the wire.
	r.PutMeta("empty", []byte{})
	if v := r.GetMeta("empty"); v == nil || len(v) != 0 {
		t.Fatalf("empty meta came back %v", v)
	}
}

// rpcs returns how many fabric RPCs the satellite side has completed.
func (h *remoteHarness) rpcs() int64 { return h.fb.Stats().RPCs.Load() }

// Appends are buffered at the satellite and reach the seed with the sync, in
// one RPC; the own stream's end is answered from the tracked end.
func TestRemoteLogRoundTrip(t *testing.T) {
	h := newRemoteHarness(t)
	r := h.rem
	const node = common.NodeID(3)

	if got := r.LogAppend(node, []byte("first-rec")); got != 0 {
		t.Fatalf("first append placed at %d", got)
	}
	before := h.rpcs() // the first append learned the stream end; no more RPCs until the sync
	if got := r.LogAppend(node, []byte("second")); got != 9 {
		t.Fatalf("second append placed at %d", got)
	}
	if end := r.LogEndLSN(node); end != 15 {
		t.Fatalf("end %d", end)
	}
	if n := h.rpcs() - before; n != 0 {
		t.Fatalf("append + own-stream LogEndLSN issued %d RPCs, want 0", n)
	}
	if end := h.seed.LogEndLSN(node); end != 0 {
		t.Fatalf("seed stream end %d before the sync: the tail was shipped early", end)
	}
	if d := r.LogDurableLSN(node); d != 0 {
		t.Fatalf("durable before sync %d", d)
	}
	before = h.rpcs()
	if d := r.LogSync(node); d != 15 {
		t.Fatalf("sync %d", d)
	}
	if n := h.rpcs() - before; n != 1 {
		t.Fatalf("sync of a 2-record tail issued %d RPCs, want 1", n)
	}
	if n := r.Stats().LogSyncs.Load(); n != 1 {
		t.Fatalf("client counted %d log syncs, want 1", n)
	}
	buf := make([]byte, 64)
	n, err := r.LogRead(node, 0, buf)
	if err != nil || string(buf[:n]) != "first-recsecond" {
		t.Fatalf("log read: %v %q", err, buf[:n])
	}
	if start := r.LogStartLSN(node); start != 0 {
		t.Fatalf("start %d", start)
	}
	if nodes := r.LogNodes(); len(nodes) != 1 || nodes[0] != node {
		t.Fatalf("log nodes %v", nodes)
	}
	// The seed sees the identical stream: this is one store, two views.
	if d := h.seed.LogDurableLSN(node); d != 15 {
		t.Fatalf("seed durable %d", d)
	}
	// A sync with nothing buffered is a plain force, and a foreign stream's
	// end still comes from the seed.
	if d := r.LogSync(node); d != 15 {
		t.Fatalf("empty sync %d", d)
	}
	h.seed.LogAppend(42, []byte("xyz"))
	if end := r.LogEndLSN(42); end != 3 {
		t.Fatalf("foreign stream end %d, want 3", end)
	}
}

// A lost reply of the fused append+sync is retried, and the retry is
// acknowledged, not applied twice.
func TestRemoteSyncRetryIdempotent(t *testing.T) {
	h := newRemoteHarness(t)
	r := h.rem
	const node = common.NodeID(4)

	r.LogAppend(node, []byte("aaaa"))
	if d := r.LogSync(node); d != 4 {
		t.Fatalf("first sync %d", d)
	}

	// Drop exactly one RPC reply at the satellite's fabric: the tail lands at
	// the seed but the satellite must retry.
	var mu sync.Mutex
	dropped := false
	h.fb.SetInjector(func(op common.FaultOp) common.FaultDecision {
		mu.Lock()
		defer mu.Unlock()
		if op.Class == common.FaultRPC && !dropped {
			dropped = true
			return common.FaultDecision{DropReply: true}
		}
		return common.FaultDecision{}
	})
	if got := r.LogAppend(node, []byte("bbbb")); got != 4 {
		t.Fatalf("append placed at %d", got)
	}
	if got := r.LogAppend(node, []byte("cc")); got != 8 {
		t.Fatalf("append placed at %d", got)
	}
	d := r.LogSync(node)
	h.fb.SetInjector(nil)

	mu.Lock()
	if !dropped {
		t.Fatal("injector never fired")
	}
	mu.Unlock()
	if d != 10 {
		t.Fatalf("retried sync returned durable %d, want 10", d)
	}
	if r.LogFenced(node) {
		t.Fatal("a retried sync must not fence the stream")
	}
	if end := h.seed.LogEndLSN(node); end != 10 {
		t.Fatalf("stream end %d: duplicate append applied", end)
	}
	buf := make([]byte, 16)
	n, _ := r.LogRead(node, 0, buf)
	if string(buf[:n]) != "aaaabbbbcc" {
		t.Fatalf("stream contents %q", buf[:n])
	}
}

// A stream fenced while a tail is buffered: the sync reports fenced, the
// refused tail becomes durable nowhere, and the durable LSN the sync returns
// does not cover it.
func TestRemoteFencedPiggyback(t *testing.T) {
	h := newRemoteHarness(t)
	r := h.rem
	const node = common.NodeID(5)

	r.LogAppend(node, []byte("live"))
	if d := r.LogSync(node); d != 4 {
		t.Fatalf("sync %d", d)
	}
	if r.LogFenced(node) {
		t.Fatal("fenced before fence")
	}
	// Another process fences the stream at the seed while the satellite holds
	// an un-shipped tail. The sync's response carries the flag, so the
	// satellite learns the fence from the one RPC it sends anyway.
	r.LogAppend(node, []byte("dropped"))
	h.seed.FenceLog(node)
	before := h.rpcs()
	if d := r.LogSync(node); d >= 11 {
		t.Fatalf("sync of a refused tail returned durable %d, covering it", d)
	}
	if !r.LogFenced(node) {
		t.Fatal("fenced flag did not piggyback on the sync response")
	}
	if n := h.rpcs() - before; n != 1 {
		t.Fatalf("sync + LogFenced issued %d RPCs, want 1", n)
	}
	if end := h.seed.LogEndLSN(node); end != 4 {
		t.Fatalf("fenced append mutated the stream: end %d", end)
	}
	// Known fenced, the stream drops appends like the store does.
	if got := r.LogAppend(node, []byte("zombie")); got != r.LogAppend(node, []byte("zombie")) {
		t.Fatal("append to a fenced stream advanced the end")
	}

	// Fence/unfence through the proxy round-trips too.
	r.UnfenceLog(node)
	if r.LogFenced(node) || h.seed.LogFenced(node) {
		t.Fatal("unfence did not take")
	}
	r.FenceLog(node)
	if !h.seed.LogFenced(node) {
		t.Fatal("fence did not reach the seed")
	}
}

// Whatever drops the stream's un-synced suffix drops the tail; whatever else
// moves the stream ships it first. Either way the next append lands where the
// seed's stream ends.
func TestRemoteTailFollowsStreamOps(t *testing.T) {
	h := newRemoteHarness(t)
	r := h.rem

	t.Run("crash-drops", func(t *testing.T) {
		const node = common.NodeID(11)
		r.LogAppend(node, []byte("kept"))
		r.LogSync(node)
		r.LogAppend(node, []byte("lost"))
		r.LogCrashVolatile(node)
		if got := r.LogAppend(node, []byte("next")); got != 4 {
			t.Fatalf("append after crash placed at %d, want 4", got)
		}
		if d := r.LogSync(node); d != 8 {
			t.Fatalf("sync after crash: durable %d, want 8", d)
		}
		buf := make([]byte, 16)
		n, _ := r.LogRead(node, 0, buf)
		if string(buf[:n]) != "keptnext" {
			t.Fatalf("stream contents %q", buf[:n])
		}
	})
	t.Run("fence-drops", func(t *testing.T) {
		const node = common.NodeID(12)
		r.LogAppend(node, []byte("kept"))
		r.LogSync(node)
		r.LogAppend(node, []byte("lost"))
		r.FenceLog(node)
		r.UnfenceLog(node)
		if end := h.seed.LogEndLSN(node); end != 4 {
			t.Fatalf("fence shipped the tail: seed end %d", end)
		}
		if got := r.LogAppend(node, []byte("next")); got != 4 {
			t.Fatalf("append after fence/unfence placed at %d, want 4", got)
		}
		if d := r.LogSync(node); d != 8 {
			t.Fatalf("sync: durable %d, want 8", d)
		}
	})
	t.Run("truncate-ships", func(t *testing.T) {
		const node = common.NodeID(13)
		r.LogAppend(node, []byte("aaaa"))
		r.LogSync(node)
		r.LogAppend(node, []byte("bbbb"))
		r.LogTruncate(node, 4)
		if start, end := h.seed.LogStartLSN(node), h.seed.LogEndLSN(node); start != 4 || end != 8 {
			t.Fatalf("after truncate: seed stream [%d,%d), want [4,8)", start, end)
		}
		if got := r.LogAppend(node, []byte("cc")); got != 8 {
			t.Fatalf("append after truncate placed at %d, want 8", got)
		}
		if d := r.LogSync(node); d != 10 {
			t.Fatalf("sync: durable %d, want 10", d)
		}
	})
}

// A tail past the 256 KiB cap ships early, unforced, and the stream stays
// contiguous: every record is at the LSN the append returned.
func TestRemoteTailOverflowContiguous(t *testing.T) {
	h := newRemoteHarness(t)
	r := h.rem
	const node = common.NodeID(15)

	rec := bytes.Repeat([]byte{'r'}, 10_000)
	var want common.LSN
	for i := 0; i < 60; i++ { // 600 kB: two overflow ships and a remainder
		rec[0] = byte('A' + i)
		if got := r.LogAppend(node, rec); got != want {
			t.Fatalf("append %d placed at %d, want %d", i, got, want)
		}
		want += common.LSN(len(rec))
	}
	shipped := h.seed.LogEndLSN(node)
	if shipped < 512<<10 || shipped >= want {
		t.Fatalf("seed end %d before the sync, want two overflow ships of >= 256 KiB and a buffered rest (< %d)", shipped, want)
	}
	if d := h.seed.LogDurableLSN(node); d != 0 {
		t.Fatalf("overflow ship forced the log: durable %d", d)
	}
	if d := r.LogSync(node); d != want {
		t.Fatalf("sync %d want %d", d, want)
	}
	buf := make([]byte, want)
	n, err := h.seed.LogRead(node, 0, buf)
	if err != nil || common.LSN(n) != want {
		t.Fatalf("read back %d bytes: %v", n, err)
	}
	for i := 0; i < 60; i++ {
		if buf[i*len(rec)] != byte('A'+i) {
			t.Fatalf("record %d is not at its LSN", i)
		}
	}
}

func TestRemoteWalWriter(t *testing.T) {
	h := newRemoteHarness(t)
	const node = common.NodeID(6)

	w := wal.NewWriter(h.rem, node)
	var end common.LSN
	for i := 0; i < 10; i++ {
		end = w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: common.LLSN(i + 1)})
	}
	w.Sync(end)
	if d := h.seed.LogDurableLSN(node); d != end {
		t.Fatalf("durable %d want %d", d, end)
	}

	// The seed can replay the satellite's stream.
	rd := wal.NewStreamReader(h.seed, node, 0, 0)
	count := 0
	for {
		rec, err := rd.Next()
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if rec == nil {
			break
		}
		if rec.Type != wal.RecCommit {
			t.Fatalf("record %d type %d", count, rec.Type)
		}
		count++
	}
	if count != 10 {
		t.Fatalf("replayed %d records", count)
	}

	// Fencing with records still in the tail: the sync reports fenced and
	// the refused records never count as durable — the gate Commit fails on
	// — and the writer closes instead of panicking or spinning.
	w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: 11})
	h.seed.FenceLog(node)
	lost := w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: 12})
	w.Sync(lost)
	if d := w.Durable(); d >= lost || d != end {
		t.Fatalf("writer durable %d after a fenced sync, want %d (< %d)", d, end, lost)
	}
	if d := h.seed.LogDurableLSN(node); d != end {
		t.Fatalf("fenced stream advanced to %d", d)
	}
	if got := w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: 13}); got != w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: 14}) {
		t.Fatal("writer still appending after its stream was fenced")
	}
}

// Concurrent committers share sync rounds, and a round that shipped an older
// tail never acknowledges a younger record: Sync returns only once the
// caller's own record is durable at the seed.
func TestRemoteWalWriterGroupCommit(t *testing.T) {
	h := newRemoteHarness(t)
	const node = common.NodeID(16)
	const committers, each = 8, 40

	w := wal.NewWriter(h.rem, node)
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				end := w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: common.LLSN(g*each + i + 1)})
				w.Sync(end)
				if d := h.seed.LogDurableLSN(node); d < end {
					t.Errorf("Sync(%d) returned with the seed durable only to %d", end, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if d, end := h.seed.LogDurableLSN(node), w.End(); d != end {
		t.Fatalf("durable %d, writer end %d", d, end)
	}
	syncs := h.rem.Stats().LogSyncs.Load()
	if syncs >= committers*each {
		t.Errorf("%d sync rounds for %d commits: committers no longer share rounds", syncs, committers*each)
	}
	// Every record is in the stream exactly once, whichever round shipped it.
	rd := wal.NewStreamReader(h.seed, node, 0, 0)
	seen := make(map[common.LLSN]bool)
	for {
		rec, err := rd.Next()
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if rec == nil {
			break
		}
		if seen[rec.LLSN] {
			t.Fatalf("record %d shipped twice", rec.LLSN)
		}
		seen[rec.LLSN] = true
	}
	if len(seen) != committers*each {
		t.Fatalf("replayed %d records, want %d", len(seen), committers*each)
	}
}

// A transient uplink outage shorter than the retry budget must be invisible
// to the log path: no fail-safe fence, no misplaced LSN — the call blocks,
// rides the blip out, and lands exactly once. This is the regression guard
// for the bricked-satellite bug: a 500ms partition whose redial backoff
// outlasted the old ~1s retry budget stuck the fenced fail-safe, which
// permanently closed the node's wal.Writer even though the node still held
// its membership lease — every commit failed ErrNodeDown forever after.
func TestRemoteRidesOutUplinkBlip(t *testing.T) {
	h := newRemoteHarness(t)
	r := h.rem
	const node = common.NodeID(9)

	r.LogAppend(node, []byte("pre!"))
	if d := r.LogSync(node); d != 4 {
		t.Fatalf("sync %d", d)
	}

	// Fail every RPC until healed: the fabric conn looks dead for ~150ms,
	// comfortably inside the default retry budget.
	var blip atomic.Bool
	blip.Store(true)
	h.fb.SetInjector(func(op common.FaultOp) common.FaultDecision {
		if blip.Load() && op.Class == common.FaultRPC {
			return common.FaultDecision{Err: common.ErrInjected}
		}
		return common.FaultDecision{}
	})
	time.AfterFunc(150*time.Millisecond, func() { blip.Store(false) })

	start := time.Now()
	if got := r.LogAppend(node, []byte("blip")); got != 4 {
		t.Fatalf("append placed at %d", got)
	}
	if d := r.LogSync(node); d != 8 {
		t.Fatalf("sync through blip: durable %d", d)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Fatal("sync returned before the blip healed")
	}
	if r.LogFenced(node) {
		t.Fatal("transient outage must not fence the stream")
	}
	if end := h.seed.LogEndLSN(node); end != 8 {
		t.Fatalf("stream end %d after blip", end)
	}
}

// Same property one layer up: a wal.Writer whose store rides an uplink blip
// must stay open and keep committing afterwards, not close itself on a
// fail-safe fence while the node is still a lease-holding member.
func TestRemoteWalWriterSurvivesUplinkBlip(t *testing.T) {
	h := newRemoteHarness(t)
	const node = common.NodeID(10)

	w := wal.NewWriter(h.rem, node)
	end := w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: 1})
	w.Sync(end)

	var blip atomic.Bool
	blip.Store(true)
	h.fb.SetInjector(func(op common.FaultOp) common.FaultDecision {
		if blip.Load() && op.Class == common.FaultRPC {
			return common.FaultDecision{Err: common.ErrInjected}
		}
		return common.FaultDecision{}
	})
	time.AfterFunc(150*time.Millisecond, func() { blip.Store(false) })

	end = w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: 2})
	w.Sync(end)
	if d := h.seed.LogDurableLSN(node); d != end {
		t.Fatalf("durable %d want %d: commit lost in the blip", d, end)
	}

	// The writer must still be open: the next commit lands too.
	end = w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: 3})
	w.Sync(end)
	if d := h.seed.LogDurableLSN(node); d != end {
		t.Fatalf("durable %d want %d: writer closed after the blip", d, end)
	}
}

func TestRemoteUplinkLossFailsSafe(t *testing.T) {
	h := newRemoteHarness(t)
	r := h.rem
	const node = common.NodeID(8)
	r.SetRetryPolicy(common.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})

	r.LogAppend(node, []byte("pre"))
	h.srv.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := r.ReadPage(1); err != nil && !errors.Is(err, common.ErrNotFound) {
			if !common.IsTransient(err) {
				t.Fatalf("uplink loss must surface as transient, got %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server close never surfaced")
		}
		time.Sleep(time.Millisecond)
	}

	// Error-less ops on the log path fail SAFE: the sync that finds the
	// uplink dead acknowledges nothing and the stream reports fenced from
	// then on, so a wal.Writer closes cleanly. The fence is learned at the
	// sync, which is what gates every commit.
	if got := r.LogAppend(node, []byte("lost")); got != 3 {
		t.Fatalf("dead-uplink append placed at %d", got)
	}
	if d := r.LogSync(node); d != 0 {
		t.Fatalf("dead-uplink sync returned durable %d, want 0", d)
	}
	if !r.LogFenced(node) {
		t.Fatal("dead uplink must report fenced")
	}
}

// An idle writer's next Append must not wait on the uplink: the fence is
// learned from the replies of what the client sends anyway, so an Append
// after an idle spell sends nothing and cannot block under the writer's lock
// while the uplink is cut. The Sync that follows rides the cut out, and the
// writer stays open.
func TestIdleAppendRidesOutUplinkBlip(t *testing.T) {
	h := newRemoteHarness(t)
	const node = common.NodeID(17)

	w := wal.NewWriter(h.rem, node)
	end := w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: 1})
	w.Sync(end)
	time.Sleep(150 * time.Millisecond)

	var cut atomic.Bool
	var rpcs atomic.Int64
	cut.Store(true)
	h.fb.SetInjector(func(op common.FaultOp) common.FaultDecision {
		if op.Class != common.FaultRPC {
			return common.FaultDecision{}
		}
		rpcs.Add(1)
		if cut.Load() {
			return common.FaultDecision{Err: common.ErrInjected}
		}
		return common.FaultDecision{}
	})
	heal := time.AfterFunc(time.Second, func() { cut.Store(false) })
	defer heal.Stop()

	start := time.Now()
	end = w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: 2})
	if took, n := time.Since(start), rpcs.Load(); took > 50*time.Millisecond || n != 0 {
		t.Fatalf("Append after an idle spell took %v and sent %d uplink RPCs, want < 50ms and 0", took, n)
	}
	w.Sync(end)
	if d := h.seed.LogDurableLSN(node); d != end {
		t.Fatalf("durable %d want %d: the commit did not ride out the cut", d, end)
	}
	if w.Durable() != end {
		t.Fatalf("writer durable %d want %d", w.Durable(), end)
	}

	// The writer is still open: the next commit lands too.
	end = w.Append(&wal.Record{Type: wal.RecCommit, Node: node, LLSN: 3})
	w.Sync(end)
	if d := h.seed.LogDurableLSN(node); d != end {
		t.Fatalf("durable %d want %d: writer closed after the cut", d, end)
	}
}
