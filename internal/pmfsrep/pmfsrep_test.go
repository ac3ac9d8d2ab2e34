package pmfsrep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
)

const (
	testNode = common.PMFSNode
	tsoReg   = "pmfs.tso"
	memReg   = "pmfs.members"
	dbpReg   = "pmfs.dbp"
	dbpSize  = 64 << 10
)

// newTestTier builds a fabric with a PMFS endpoint hosting a TSO word, a
// small quorum-read region and a DBP-like frame region, fronted by a K-way
// replicator.
func newTestTier(t *testing.T, k int) (*rdma.Fabric, *Replicator) {
	f, r, _ := newTestTierDBP(t, k)
	return f, r
}

// newTestTierDBP is newTestTier that also returns the leader copy of the
// frame region, for writes behind the replicator's back.
func newTestTierDBP(t *testing.T, k int) (*rdma.Fabric, *Replicator, *rdma.Region) {
	t.Helper()
	f, dbp := newPMFSFabric()
	r := New(f, testNode, k)
	r.AddRegion(tsoReg, 8, false)
	r.AddRegion(memReg, 1024, true)
	r.AddRegion(dbpReg, dbpSize, false)
	r.Attach(f)
	return f, r, dbp
}

// newPMFSFabric is a bare fabric whose PMFS endpoint hosts the test
// regions and an echo service; it returns the frame region.
func newPMFSFabric() (*rdma.Fabric, *rdma.Region) {
	f := rdma.NewFabric(rdma.Latency{})
	ep := f.Register(testNode)
	ep.RegisterRegion(tsoReg, 8)
	ep.RegisterRegion(memReg, 1024)
	ep.Serve("echo", func(req []byte) ([]byte, error) { return append([]byte("re:"), req...), nil })
	return f, ep.RegisterRegion(dbpReg, dbpSize)
}

// mirrorWord reads a mirrored atomic cell under the mirror's lock (0, false
// if absent).
func mirrorWord(m *mirror, region string, off int) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mr := m.regions[region]; mr != nil {
		if w := mr.words[off]; w != nil {
			return w.val, true
		}
	}
	return 0, false
}

// TestReplicatedFetchAddNeverDoubleAdvances is the TSO safety property under
// fault injection: concurrent committers draw grants through the replicated
// FetchAdd64 while ~1/5 of atomics are dropped before execution (the fabric
// contract chaos relies on) and every one-sided write is delivered twice.
// Retried grants must never double-advance the oracle: the successful grants
// form a dense, duplicate-free range, and every follower mirror converges on
// the final counter value.
func TestReplicatedFetchAddNeverDoubleAdvances(t *testing.T) {
	f, r := newTestTier(t, 3)

	var opCount atomic.Uint64
	f.SetInjector(func(op common.FaultOp) common.FaultDecision {
		n := opCount.Add(1)
		switch op.Class {
		case common.FaultAtomic:
			if n%5 == 0 {
				return common.FaultDecision{Err: common.ErrInjected}
			}
		case common.FaultWrite:
			return common.FaultDecision{Duplicate: true}
		}
		return common.FaultDecision{}
	})
	defer f.SetInjector(nil)

	const workers, grantsPer = 8, 200
	grants := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < grantsPer; i++ {
				var prev uint64
				err := common.Retry(common.DefaultRetryPolicy(), func() (e error) {
					prev, e = f.FetchAdd64(testNode, tsoReg, 0, 1)
					return e
				})
				if err != nil {
					t.Errorf("worker %d grant %d: %v", w, i, err)
					return
				}
				grants[w] = append(grants[w], prev)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Grants dense and duplicate-free: exactly {0..total-1}.
	total := workers * grantsPer
	seen := make(map[uint64]bool, total)
	for _, g := range grants {
		for _, prev := range g {
			if seen[prev] {
				t.Fatalf("grant %d issued twice — the TSO double-advanced", prev)
			}
			seen[prev] = true
		}
	}
	for i := uint64(0); i < uint64(total); i++ {
		if !seen[i] {
			t.Fatalf("grant %d never issued — the range has a hole", i)
		}
	}
	if v, err := f.Read64(testNode, tsoReg, 0); err != nil || v != uint64(total) {
		t.Fatalf("leader TSO = %d, %v; want %d", v, err, total)
	}
	// Every follower mirror learned the final counter through in-band acks.
	for _, rep := range r.replicas {
		if rep.m == nil {
			continue
		}
		if v, ok := mirrorWord(rep.m, tsoReg, 0); !ok || v != uint64(total) {
			t.Fatalf("follower %d mirror TSO = %d (present=%v), want %d", rep.id, v, ok, total)
		}
	}
	if st := r.Snapshot(); st.Grants < int64(total) {
		t.Fatalf("grants counter %d < %d successful grants", st.Grants, total)
	}
}

// TestDuplicateRecordSuppressed pins the version-word gate: re-applying the
// same record (duplicate delivery of an in-band ack) is refused, and a stale
// record cannot roll a newer word or chunk backwards.
func TestDuplicateRecordSuppressed(t *testing.T) {
	m := newMirror()
	grant := Record{Kind: RecWord, Epoch: 1, Seq: 7, Region: tsoReg, Off: 0, Val: 42}
	if !m.apply(grant) {
		t.Fatal("first apply refused")
	}
	if m.apply(grant) {
		t.Fatal("duplicate apply accepted — retried grant could double-advance")
	}
	if v, _ := mirrorWord(m, tsoReg, 0); v != 42 {
		t.Fatalf("word = %d after duplicate, want 42", v)
	}
	// A stale grant (older seq, lower value) must not regress the word.
	if m.apply(Record{Kind: RecWord, Epoch: 1, Seq: 3, Region: tsoReg, Off: 0, Val: 17}) {
		t.Fatal("stale grant accepted")
	}
	if v, _ := mirrorWord(m, tsoReg, 0); v != 42 {
		t.Fatalf("word regressed to %d", v)
	}

	w := Record{Kind: RecWrite, Epoch: 1, Seq: 9, Region: memReg, Off: 8, Data: []byte("new")}
	if !m.apply(w) {
		t.Fatal("write apply refused")
	}
	if m.apply(Record{Kind: RecWrite, Epoch: 1, Seq: 5, Region: memReg, Off: 8, Data: []byte("old")}) {
		t.Fatal("stale write accepted over newer chunk")
	}
}

// TestFailoverFollowerDeath kills a follower: the epoch advances exactly
// once, the leader stays, and killing down to the last copy is refused.
func TestFailoverFollowerDeath(t *testing.T) {
	_, r := newTestTier(t, 3)
	if got := r.Epoch(); got != 1 {
		t.Fatalf("initial epoch = %d, want 1", got)
	}
	if err := r.KillReplica(1); err != nil {
		t.Fatalf("kill follower: %v", err)
	}
	if got := r.Epoch(); got != 2 {
		t.Fatalf("epoch after one kill = %d, want exactly 2", got)
	}
	if r.Leader() != 0 {
		t.Fatalf("leader changed to %d on follower death", r.Leader())
	}
	if err := r.KillReplica(1); err == nil {
		t.Fatal("double-kill of a fenced replica succeeded")
	}
	if got := r.Epoch(); got != 2 {
		t.Fatalf("refused kill advanced the epoch to %d", got)
	}
	if err := r.KillReplica(2); err != nil {
		t.Fatalf("kill second follower: %v", err)
	}
	if err := r.KillReplica(0); err == nil {
		t.Fatal("killed the last live copy")
	}
	if got, want := r.Snapshot().Failovers, int64(2); got != want {
		t.Fatalf("failovers = %d, want %d", got, want)
	}
}

// TestFailoverLeaderPromotion kills the leader mid-traffic: a follower is
// promoted, no acked write or grant is lost, and the TSO stays monotonic
// (grants after the failover continue above the pre-kill ceiling).
func TestFailoverLeaderPromotion(t *testing.T) {
	f, r := newTestTier(t, 3)
	for i := 0; i < 10; i++ {
		if _, err := f.FetchAdd64(testNode, tsoReg, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	payload := []byte("slot-state")
	if err := f.Write(testNode, memReg, 64, payload); err != nil {
		t.Fatal(err)
	}

	if err := r.KillReplica(0); err != nil {
		t.Fatalf("kill leader: %v", err)
	}
	if r.Leader() == 0 {
		t.Fatal("leader not replaced")
	}
	if got := r.Epoch(); got != 2 {
		t.Fatalf("epoch = %d, want exactly 2", got)
	}

	// Acked state survives the promotion.
	got := make([]byte, len(payload))
	if err := f.Read(testNode, memReg, 64, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("acked write lost across failover: %q, %v", got, err)
	}
	if v, err := f.Read64(testNode, tsoReg, 0); err != nil || v != 10 {
		t.Fatalf("TSO = %d, %v after failover; want 10", v, err)
	}
	// Monotonic across the failover: the next grant starts at the ceiling.
	if prev, err := f.FetchAdd64(testNode, tsoReg, 0, 1); err != nil || prev != 10 {
		t.Fatalf("post-failover grant = %d, %v; want 10", prev, err)
	}
}

// TestReadRepair lags one follower behind the leader's version words and
// checks a quorum read heals it from the leader copy.
func TestReadRepair(t *testing.T) {
	f, r := newTestTier(t, 3)
	payload := []byte("lease-slot")
	if err := f.Write(testNode, memReg, 32, payload); err != nil {
		t.Fatal(err)
	}
	// Simulate a lagging copy (e.g. freshly re-seeded after partial sync):
	// drop follower 1's mirrored extents while the leader track still
	// remembers the write's version word.
	lag := r.replicas[1]
	lag.m.reset()

	buf := make([]byte, len(payload))
	if err := f.Read(testNode, memReg, 32, buf); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().ReadRepairs; got == 0 {
		t.Fatal("divergent follower not repaired on quorum read")
	}
	// The healed chunk carries the leader bytes at the leader's version.
	ci := 32 / chunkSize
	lseq := r.track.chunkSeq(memReg, ci)
	if lag.m.chunkSeq(memReg, ci) != lseq {
		t.Fatalf("follower chunk seq %d, want leader's %d", lag.m.chunkSeq(memReg, ci), lseq)
	}
	lag.m.mu.Lock()
	_, data := lag.m.regions[memReg].chunk(ci, false)
	repaired := bytes.Equal(data[32:32+len(payload)], payload)
	lag.m.mu.Unlock()
	if !repaired {
		t.Fatal("repaired chunk does not match the leader copy")
	}
}

// TestFailoverWindowIsTransient pins the error contract verbs see while a
// failover drains the tier: typed-transient, absorbed by common.Retry.
func TestFailoverWindowIsTransient(t *testing.T) {
	f, r := newTestTier(t, 3)
	r.gate.Store(true)
	defer r.gate.Store(false)
	_, err := f.FetchAdd64(testNode, tsoReg, 0, 1)
	if err == nil {
		t.Fatal("gated verb succeeded")
	}
	if !common.IsTransient(err) {
		t.Fatalf("failover-window error %v is not typed-transient", err)
	}
	if !errors.Is(err, common.ErrUnreachable) {
		t.Fatalf("failover-window error %v does not wrap ErrUnreachable", err)
	}
}

// TestUnregisteredRegionPassthrough: verbs on regions outside the replicated
// set must not pay any replication tax or gating.
func TestUnregisteredRegionPassthrough(t *testing.T) {
	f := rdma.NewFabric(rdma.Latency{})
	ep := f.Register(testNode)
	ep.RegisterRegion("scratch", 64)
	ep.RegisterRegion(tsoReg, 8)
	r := New(f, testNode, 3)
	r.AddRegion(tsoReg, 8, false)
	r.Attach(f)
	r.gate.Store(true) // even mid-failover
	if err := f.Write(testNode, "scratch", 0, []byte("x")); err != nil {
		t.Fatalf("passthrough write: %v", err)
	}
	if got := r.Snapshot().MirroredWrites; got != 0 {
		t.Fatalf("unregistered region was mirrored (%d records)", got)
	}
}

// TestLeaderTracksOnlyQuorumReadRegions: the leader's version table serves
// read-repair alone, so TSO grants and DBP pushes leave it empty while the
// followers still mirror them, and lease-table writes are tracked.
func TestLeaderTracksOnlyQuorumReadRegions(t *testing.T) {
	f, r := newTestTier(t, 3)
	if _, err := f.FetchAdd64(testNode, tsoReg, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(testNode, dbpReg, 16<<10, bytes.Repeat([]byte{7}, 10<<10)); err != nil {
		t.Fatal(err)
	}
	if n := len(r.track.regions); n != 0 {
		t.Fatalf("TSO and DBP writes left %d regions in the leader's version table", n)
	}
	for _, rep := range r.replicas[1:] {
		if rep.m.chunkSeq(dbpReg, 16<<10/chunkSize) == 0 || rep.m.wordSeq(tsoReg, 0) == 0 {
			t.Fatalf("follower %d did not mirror the untracked writes", rep.id)
		}
	}
	if err := f.Write(testNode, memReg, 64, []byte("lease")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CAS64(testNode, memReg, 128, 0, 9); err != nil {
		t.Fatal(err)
	}
	if r.track.chunkSeq(memReg, 0) == 0 || len(r.track.wordsIn(memReg, 128, 8)) != 1 {
		t.Fatal("lease-table write or CAS not tracked")
	}
}

// TestMirrorMemoryFollowsWrites: one frame pushed to the far end of a
// 128 MiB DBP region costs a follower its block and the index directory,
// not memory proportional to the region.
func TestMirrorMemoryFollowsWrites(t *testing.T) {
	const size = 128 << 20
	frame := bytes.Repeat([]byte{0xA5}, 16<<10)
	m := newMirror()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.apply(Record{Kind: RecWrite, Epoch: 1, Seq: 1, Region: dbpReg, Off: size - 16<<10, Data: frame})
	runtime.ReadMemStats(&after)
	d := after.TotalAlloc - before.TotalAlloc
	t.Logf("one 16 KiB far-end write: %d bytes", d)
	if d >= 64<<10 {
		t.Fatalf("one 16 KiB write grew the mirror by %d bytes, want < 64 KiB", d)
	}
	if m.chunkSeq(dbpReg, (size-1)/chunkSize) != 1 {
		t.Fatal("far-end chunk not mirrored")
	}
}

// TestPromotionCopiesWrittenChunks: promotion installs exactly the chunks the
// new leader mirrored. The leader copy is scribbled on behind the
// replicator's back; the scribble is overwritten in written chunks and
// survives everywhere else, including unwritten chunks of a touched block.
func TestPromotionCopiesWrittenChunks(t *testing.T) {
	f, r, dbp := newTestTierDBP(t, 3)
	written := map[int]bool{3: true, 130: true}
	for ci := range written {
		if err := f.Write(testNode, dbpReg, ci*chunkSize, bytes.Repeat([]byte{byte(ci)}, chunkSize)); err != nil {
			t.Fatal(err)
		}
	}
	const scribble = 0xDEAD
	probe := []int{0, 2, 3, 4, 63, 64, 129, 130, 131, 255}
	for _, ci := range probe {
		if err := dbp.LocalWrite64(ci*chunkSize+8, scribble); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.KillReplica(0); err != nil {
		t.Fatal(err)
	}
	for _, ci := range probe {
		v, err := dbp.LocalRead64(ci*chunkSize + 8)
		if err != nil {
			t.Fatal(err)
		}
		if want := binary.LittleEndian.Uint64(bytes.Repeat([]byte{byte(ci)}, 8)); written[ci] && v != want {
			t.Fatalf("written chunk %d = %#x after promotion, want %#x", ci, v, want)
		}
		if !written[ci] && v != scribble {
			t.Fatalf("unwritten chunk %d was overwritten by promotion (%#x)", ci, v)
		}
	}
}

// mirrorBytes reads n mirrored bytes at off, within one chunk, under the
// mirror's lock (nil if the chunk is absent).
func mirrorBytes(m *mirror, region string, off, n int) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mr := m.regions[region]; mr != nil {
		if _, data := mr.chunk(off/chunkSize, false); data != nil {
			return append([]byte(nil), data[off%chunkSize:off%chunkSize+n]...)
		}
	}
	return nil
}

// TestReplicatorVerbTable runs all eight verbs, in turn, through a 3-way
// tier and on a bare fabric. Every result is the bare fabric's; each verb
// mirrors its records to every follower — one per write segment, one
// post-image per successful atomic, none for a read, a failed CAS or an
// RPC; a vectored read of the quorum-read region repairs a diverged
// follower; and RPCs pass through while the failover gate is set.
func TestReplicatorVerbTable(t *testing.T) {
	bare, _ := newPMFSFabric()
	tier, r := newTestTier(t, 3)
	for _, f := range []*rdma.Fabric{bare, tier} {
		if err := f.Write(testNode, memReg, 32, []byte("lease-slot")); err != nil {
			t.Fatal(err)
		}
	}
	followers := func(check func(m *mirror) bool) bool {
		for _, rep := range r.replicas {
			if rep.m != nil && !check(rep.m) {
				return false
			}
		}
		return true
	}
	mirrored := func(region string, off int, want string) func() bool {
		return func() bool {
			return followers(func(m *mirror) bool { return string(mirrorBytes(m, region, off, len(want))) == want })
		}
	}
	word := func(want uint64) func() bool {
		return func() bool {
			return followers(func(m *mirror) bool { v, ok := mirrorWord(m, tsoReg, 0); return ok && v == want })
		}
	}
	verbs := []struct {
		name    string
		do      func(f *rdma.Fabric) (any, error)
		records uint64
		prep    func() // on the tier, before the verb
		holds   func() bool
	}{
		{name: "Write", records: 1, holds: mirrored(dbpReg, 300, "write"),
			do: func(f *rdma.Fabric) (any, error) { return nil, f.Write(testNode, dbpReg, 300, []byte("write")) }},
		{name: "WriteV", records: 2, holds: func() bool { return mirrored(dbpReg, 1024, "ab")() && mirrored(dbpReg, 4096, "cd")() },
			do: func(f *rdma.Fabric) (any, error) {
				return nil, f.WriteV(testNode, dbpReg, []rdma.Seg{{Off: 1024, Buf: []byte("ab")}, {Off: 4096, Buf: []byte("cd")}})
			}},
		{name: "Read",
			do: func(f *rdma.Fabric) (any, error) { b := make([]byte, 5); return b, f.Read(testNode, dbpReg, 300, b) }},
		{name: "CAS64 swaps", records: 1, holds: word(41),
			do: func(f *rdma.Fabric) (any, error) { return f.CAS64(testNode, tsoReg, 0, 0, 41) }},
		{name: "CAS64 fails", holds: word(41),
			do: func(f *rdma.Fabric) (any, error) { return f.CAS64(testNode, tsoReg, 0, 0, 99) }},
		{name: "FetchAdd64", records: 1, holds: word(46),
			do: func(f *rdma.Fabric) (any, error) { return f.FetchAdd64(testNode, tsoReg, 0, 5) }},
		{name: "ReadV", prep: func() { r.replicas[1].m.reset() },
			holds: func() bool {
				return r.Snapshot().ReadRepairs > 0 && r.replicas[1].m.chunkSeq(memReg, 0) == r.track.chunkSeq(memReg, 0)
			},
			do: func(f *rdma.Fabric) (any, error) {
				segs := []rdma.Seg{{Off: 32, Buf: make([]byte, 10)}, {Off: 512, Buf: make([]byte, 8)}}
				return segs, f.ReadV(testNode, memReg, segs)
			}},
		{name: "Call", prep: func() { r.gate.Store(true) },
			do: func(f *rdma.Fabric) (any, error) { return f.Call(testNode, "echo", []byte("x")) }},
		{name: "CallBatch", prep: func() { r.gate.Store(true) },
			do: func(f *rdma.Fabric) (any, error) { return f.CallBatch(testNode, "echo", [][]byte{{'a'}, {'b'}}) }},
	}
	for _, v := range verbs {
		want, err := v.do(bare)
		if err != nil {
			t.Fatalf("%s on the bare fabric: %v", v.name, err)
		}
		if v.prep != nil {
			v.prep()
		}
		seq := r.seq.Load()
		got, err := v.do(tier)
		r.gate.Store(false)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s through the tier = %v, %v; the bare fabric's %v", v.name, got, err, want)
		}
		if n := r.seq.Load() - seq; n != v.records {
			t.Errorf("%s mirrored %d records, want %d", v.name, n, v.records)
		}
		if v.holds != nil && !v.holds() {
			t.Errorf("%s: the followers do not hold its effect", v.name)
		}
	}
}

// TestConcurrentWritesToOneChunkAllReachMirrors: writers that each own one
// 8-byte word of the same 256-byte chunk write concurrently. Every record
// reaches every follower — none is refused as a duplicate, since there are
// none — and after a quorum read each follower holds every writer's last
// value. A record that drew its seq before a neighbour's but applied after
// it would be refused by the chunk's version word, and the leader, which
// tracks the later seq, would not repair it.
func TestConcurrentWritesToOneChunkAllReachMirrors(t *testing.T) {
	f, r := newTestTier(t, 3)
	const writers, writes = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= writes; i++ {
				if err := f.Write64(testNode, memReg, 8*w, uint64(w<<32|i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().DupSuppressed; got != 0 {
		t.Errorf("%d records refused as duplicates; the writers sent none", got)
	}
	want := make([]byte, 8*writers)
	if err := f.Read(testNode, memReg, 0, want); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		if v := binary.LittleEndian.Uint64(want[8*w:]); v != uint64(w<<32|writes) {
			t.Fatalf("leader word %d = %#x, want %#x", w, v, w<<32|writes)
		}
	}
	for _, rep := range r.replicas {
		if rep.m == nil {
			continue
		}
		if got := mirrorBytes(rep.m, memReg, 0, len(want)); !bytes.Equal(got, want) {
			t.Errorf("replica %d holds %x, leader %x", rep.id, got, want)
		}
	}
}
