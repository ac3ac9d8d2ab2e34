package pmfsrep

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
	"polardbmp/internal/rdma"
)

// errFailover is the typed-transient error verbs see while a replica
// failover holds the tier: the issuing Conn retries it like any other transient
// fabric fault, so in-flight transactions ride out the promotion.
var errFailover = fmt.Errorf("pmfsrep: replica failover in progress: %w", common.ErrUnreachable)

// Observer receives the replication tax of one PMFS-bound verb: the time
// spent mirroring it and collecting the quorum, attributed to the issuing
// node (trace.StagePmfsReplicate).
type Observer func(src common.NodeID, quorum time.Duration)

// regionInfo describes one replicated region.
type regionInfo struct {
	size       int
	quorumRead bool // quorum-verify + read-repair on one-sided reads
}

// replica is one copy of the PMFS tier. The current leader's copy is the
// real fabric regions (m == nil); followers hold sparse mirrors.
type replica struct {
	id     int
	fenced bool // guarded by Replicator.mu (writes under Lock)
	m      *mirror
}

// Replicator mirrors the PMFS shared-memory regions across K replicas. It
// implements rdma.Transport and is attached as the fabric route for the
// PMFS node, so every verb from every node — in-process or over the socket
// fabric — funnels through it: the leader copy executes the verb, then the
// record fans out to the follower mirrors in-process (the acks ride the same
// doorbell batch — no extra fabric ops, which is what keeps the CI-pinned
// commit budget intact with K=3). Like every transport it only executes:
// the issuing fabric has already faulted the verb and charges it once it
// returns. Its own reads of the leader copy (read-repair, promotion) go to
// the inner transport directly; no node issued them, so nothing charges them.
type Replicator struct {
	inner rdma.Transport // the fabric's in-process transport (no recursion, no charge)
	node  common.NodeID  // the PMFS node id this replicator fronts
	k     int
	need  int // quorum: majority of k

	regions  map[string]regionInfo // immutable after Attach
	attached atomic.Bool

	mu       sync.RWMutex // verbs hold RLock; failover holds Lock
	gate     atomic.Bool  // set while a failover drains in-flight verbs
	replicas []*replica
	leader   int

	epoch atomic.Uint64 // pmfs replication epoch; CAS-advanced on failover
	seq   atomic.Uint64 // global record sequence — the version-word source
	track *seqTrack

	obs        atomic.Pointer[Observer]
	onFailover []func(epoch uint64) // set before Attach; run under mu

	encPool sync.Pool

	grants         metrics.Counter
	mirroredWrites metrics.Counter
	mirroredBytes  metrics.Counter
	readRepairs    metrics.Counter
	dupSuppressed  metrics.Counter
	degradedOps    metrics.Counter
	failovers      metrics.Counter
	quorumLat      metrics.Histogram
}

// New builds a K-way replicator fronting node on f. K must be at least 2;
// replica 0 starts as the leader. Register regions with AddRegion, then
// Attach to interpose on the fabric route.
func New(f *rdma.Fabric, node common.NodeID, k int) *Replicator {
	if k < 2 {
		panic("pmfsrep: need at least 2 replicas")
	}
	r := &Replicator{
		inner:   f.LocalTransport(),
		node:    node,
		k:       k,
		need:    k/2 + 1,
		regions: make(map[string]regionInfo),
		track:   newSeqTrack(),
	}
	r.encPool.New = func() any { b := make([]byte, 0, 4096); return &b }
	r.epoch.Store(1)
	for i := 0; i < k; i++ {
		rep := &replica{id: i}
		if i != 0 {
			rep.m = newMirror()
		}
		r.replicas = append(r.replicas, rep)
	}
	return r
}

// AddRegion declares one replicated region. Verbs on undeclared regions
// pass through unreplicated. quorumRead regions (the membership lease
// table) additionally verify follower version words on every one-sided
// read, repairing divergence from the leader copy.
func (r *Replicator) AddRegion(name string, size int, quorumRead bool) {
	if r.attached.Load() {
		panic("pmfsrep: AddRegion after Attach")
	}
	r.regions[name] = regionInfo{size: size, quorumRead: quorumRead}
}

// OnFailover registers a hook run (under the failover lock) after a replica
// is fenced and any promotion finished, before mirrors are re-seeded. Hooks
// re-publish server-side state that reaches the regions through local
// writes — which bypass the replicated fabric path — and must therefore use
// only Local* region access themselves.
func (r *Replicator) OnFailover(h func(epoch uint64)) {
	if r.attached.Load() {
		panic("pmfsrep: OnFailover after Attach")
	}
	r.onFailover = append(r.onFailover, h)
}

// Attach interposes the replicator on f's route for the PMFS node.
func (r *Replicator) Attach(f *rdma.Fabric) {
	r.attached.Store(true)
	f.AttachRemote(r.node, r)
}

// SetObserver installs the replication-tax observer (nil clears it).
func (r *Replicator) SetObserver(o Observer) {
	if o == nil {
		r.obs.Store(nil)
		return
	}
	r.obs.Store(&o)
}

// Epoch returns the current pmfs replication epoch.
func (r *Replicator) Epoch() uint64 { return r.epoch.Load() }

// Leader returns the current leader replica's id.
func (r *Replicator) Leader() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.replicas[r.leader].id
}

// Live returns the number of unfenced replicas.
func (r *Replicator) Live() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.liveLocked()
}

func (r *Replicator) liveLocked() int {
	n := 0
	for _, rep := range r.replicas {
		if !rep.fenced {
			n++
		}
	}
	return n
}

// --- replication core -------------------------------------------------------

// mirrorRecord encodes one record through the replication codec (the wire
// image a socket-hosted replica would receive) and applies the decoded form
// to every live follower. The leader's version table notes it only for a
// quorum-read region. Callers hold mu.RLock. It returns the ack count
// including the leader.
func (r *Replicator) mirrorRecord(info regionInfo, kind uint8, region string, off int, val uint64, data []byte) int {
	seq := r.seq.Add(1)
	rec := Record{Kind: kind, Epoch: r.epoch.Load(), Seq: seq,
		Region: region, Off: uint32(off), Val: val, Data: data}
	bufp := r.encPool.Get().(*[]byte)
	b := AppendRecord((*bufp)[:0], rec)
	dec, _, err := DecodeRecord(b)
	if err != nil {
		// A record the followers cannot parse must never be acked.
		panic(fmt.Sprintf("pmfsrep: self-encoded record failed to decode: %v", err))
	}
	acks := 1 // the leader copy already holds the op
	for _, rep := range r.replicas {
		if rep.m == nil || rep.fenced {
			continue
		}
		if !rep.m.apply(dec) {
			r.dupSuppressed.Inc()
		}
		acks++ // present either way: a suppressed duplicate is still an ack
	}
	*bufp = b
	r.encPool.Put(bufp)
	switch kind {
	case RecWrite:
		if info.quorumRead {
			r.track.noteWrite(region, off, len(data), seq)
		}
		r.mirroredWrites.Inc()
		r.mirroredBytes.Add(int64(len(data)) * int64(max(acks-1, 0)))
	case RecWord:
		if info.quorumRead {
			r.track.noteWord(region, off, seq)
		}
		r.grants.Inc()
	}
	return acks
}

// finishQuorum closes one replicated verb: quorum accounting, the latency
// histogram, and the per-source trace observer.
func (r *Replicator) finishQuorum(src common.NodeID, start time.Time, acks int) {
	if acks < r.need {
		r.degradedOps.Inc()
	}
	d := time.Since(start)
	r.quorumLat.Observe(d)
	if obs := r.obs.Load(); obs != nil {
		(*obs)(src, d)
	}
}

// readRepair quorum-verifies the version words covering [off, off+n) on
// every live follower and repairs laggards from the leader copy.
// Callers hold mu.RLock.
func (r *Replicator) readRepair(region string, off, n int) {
	info := r.regions[region]
	if n <= 0 {
		return
	}
	words := r.track.wordsIn(region, off, n)
	for ci := off / chunkSize; ci <= (off+n-1)/chunkSize; ci++ {
		lseq := r.track.chunkSeq(region, ci)
		if lseq == 0 {
			continue // baseline — every replica is in sync by construction
		}
		var img []byte // leader chunk image, read once per divergent chunk
		for _, rep := range r.replicas {
			if rep.m == nil || rep.fenced || rep.m.chunkSeq(region, ci) >= lseq {
				continue
			}
			if img == nil {
				base := ci * chunkSize
				cnt := min(chunkSize, info.size-base)
				if cnt <= 0 {
					break
				}
				img = make([]byte, cnt)
				if err := r.onLeader(rdma.Verb{Op: rdma.OpRead, Name: region, Off: base, Buf: img}); err != nil {
					break
				}
			}
			// Read-repair is a record at the leader's version word:
			// the same seq gate keeps a concurrent apply from regressing.
			rep.m.apply(Record{Kind: RecWrite, Seq: lseq, Region: region, Off: uint32(ci * chunkSize), Data: img})
			r.readRepairs.Inc()
		}
	}
	for wo, lseq := range words {
		var val uint64
		var have bool
		for _, rep := range r.replicas {
			if rep.m == nil || rep.fenced || rep.m.wordSeq(region, wo) >= lseq {
				continue
			}
			if !have {
				var b [8]byte
				if err := r.onLeader(rdma.Verb{Op: rdma.OpRead, Name: region, Off: wo, Buf: b[:]}); err != nil {
					break
				}
				val, have = binary.LittleEndian.Uint64(b[:]), true
			}
			rep.m.apply(Record{Kind: RecWord, Seq: lseq, Region: region, Off: uint32(wo), Val: val})
			r.readRepairs.Inc()
		}
	}
}

// --- rdma.Transport ---------------------------------------------------------

// Exec executes v on the leader copy. On a replicated region it first waits
// out a failover, and holds the tier's read lock until v is on a quorum: a
// write mirrors one record per segment, a successful CAS and an FAA each
// mirror the word's post-image, a failed CAS mirrors nothing, and a read of
// a quorum-read region repairs the followers it covers. RPCs, and verbs on
// undeclared regions, pass through: RPC services are compute on the PMFS
// host, not replicated memory — their durable side effects land in the
// regions (and replicate there) or in the shared store.
func (r *Replicator) Exec(v rdma.Verb) (rdma.Result, error) {
	info, ok := r.regions[v.Name]
	if !ok || v.Op == rdma.OpCall || v.Op == rdma.OpCallBatch {
		return r.inner.Exec(v)
	}
	if r.gate.Load() {
		return rdma.Result{}, errFailover
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v.Op == rdma.OpRead || v.Op == rdma.OpReadV {
		res, err := r.inner.Exec(v)
		if err == nil && info.quorumRead {
			if v.Op == rdma.OpRead {
				r.readRepair(v.Name, v.Off, len(v.Buf))
			}
			for _, s := range v.Segs {
				r.readRepair(v.Name, s.Off, len(s.Buf))
			}
		}
		return res, err
	}
	start := time.Now()
	res, err := r.inner.Exec(v)
	if err != nil {
		return res, err
	}
	var acks int
	switch v.Op {
	case rdma.OpWrite:
		acks = r.mirrorRecord(info, RecWrite, v.Name, v.Off, 0, v.Buf)
	case rdma.OpWriteV:
		// One record per segment; the whole vector shares one doorbell
		// batch and is accounted as one quorum round.
		acks = r.k
		for _, s := range v.Segs {
			acks = min(acks, r.mirrorRecord(info, RecWrite, v.Name, s.Off, 0, s.Buf))
		}
	case rdma.OpCAS:
		if res.Prev != v.A {
			return res, nil // no swap, nothing to replicate
		}
		acks = r.mirrorRecord(info, RecWord, v.Name, v.Off, v.B, nil)
	case rdma.OpFAA:
		// The grant record carries the counter's post-image; followers
		// learn it through the versioned in-band ack, and the seq gate
		// plus max merge make a retried grant unable to double-advance
		// any mirror.
		acks = r.mirrorRecord(info, RecWord, v.Name, v.Off, res.Prev+v.A, nil)
	}
	r.finishQuorum(v.Src, start, acks)
	return res, nil
}

// onLeader executes a verb no node issued — read-repair and promotion
// reading or writing the leader copy — on the inner transport directly, so
// nothing charges it.
func (r *Replicator) onLeader(v rdma.Verb) error {
	v.Src, v.Node = common.AnyNode, r.node
	_, err := r.inner.Exec(v)
	return err
}

var _ rdma.Transport = (*Replicator)(nil)

// --- failover ---------------------------------------------------------------

// KillReplica fail-stops replica id: the survivors fence it, CAS the pmfs
// epoch forward exactly once, promote the most-advanced follower if the
// leader died, and re-seed the remaining mirrors. Verbs arriving during the
// window bounce with a typed-transient error (the Conn's retry absorbs it);
// verbs already in flight finish first — an acked op is on a quorum before
// its issuer ever saw the ack, so nothing acked can be lost.
func (r *Replicator) KillReplica(id int) error {
	if id < 0 || id >= r.k {
		return fmt.Errorf("pmfsrep: replica %d out of range [0,%d)", id, r.k)
	}
	r.gate.Store(true)
	defer r.gate.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.replicas[id]
	if rep.fenced {
		return fmt.Errorf("pmfsrep: replica %d already fenced", id)
	}
	if r.liveLocked() <= 1 {
		return fmt.Errorf("pmfsrep: replica %d is the last live copy", id)
	}
	rep.fenced = true
	// Exactly one epoch advance per failover, CAS-published so a racing
	// reader never observes a skipped epoch.
	for {
		e := r.epoch.Load()
		if r.epoch.CompareAndSwap(e, e+1) {
			break
		}
	}
	r.failovers.Inc()
	if id == r.leader {
		r.promoteLocked()
	}
	// Server-side state that reaches the regions through local writes
	// bypassed replication; let the owners republish it before re-seeding.
	for _, h := range r.onFailover {
		h(r.epoch.Load())
	}
	// Re-seed: survivors drop their deltas and adopt the (repaired) leader
	// copy as the new baseline.
	r.track.reset()
	for _, s := range r.replicas {
		if s.m != nil && !s.fenced {
			s.m.reset()
		}
	}
	return nil
}

// promoteLocked installs the most-advanced live follower as leader: its
// mirrored extents are written into the real regions (the surviving copy of
// record — every acked record is in it), then its mirror role dissolves.
func (r *Replicator) promoteLocked() {
	best := -1
	var bestSeq uint64
	for i, rep := range r.replicas {
		if rep.fenced || rep.m == nil {
			continue
		}
		if ls := rep.m.last(); best == -1 || ls > bestSeq {
			best, bestSeq = i, ls
		}
	}
	if best == -1 {
		return // liveLocked() > 1 guarantees a follower exists
	}
	m := r.replicas[best].m
	m.mu.Lock()
	for name, mr := range m.regions {
		info, ok := r.regions[name]
		if !ok {
			continue
		}
		var segs []rdma.Seg
		for ci := 0; ci < len(mr.dir)*blockChunks; ci++ {
			_, data := mr.chunk(ci, false)
			base := ci * chunkSize
			cnt := min(chunkSize, info.size-base)
			if data == nil || cnt <= 0 {
				continue
			}
			segs = append(segs, rdma.Seg{Off: base, Buf: data[:cnt]})
		}
		if len(segs) > 0 {
			// One doorbell batch per region; no node issued it, so it is
			// not charged.
			_ = r.onLeader(rdma.Verb{Op: rdma.OpWriteV, Name: name, Segs: segs})
		}
		for off, w := range mr.words {
			// Max-merge against the surviving copy so monotonic counters
			// (the TSO) can never move backwards across a failover.
			var b [8]byte
			cur := uint64(0)
			if err := r.onLeader(rdma.Verb{Op: rdma.OpRead, Name: name, Off: off, Buf: b[:]}); err == nil {
				cur = binary.LittleEndian.Uint64(b[:])
			}
			if w.val > cur {
				binary.LittleEndian.PutUint64(b[:], w.val)
				_ = r.onLeader(rdma.Verb{Op: rdma.OpWrite, Name: name, Off: off, Buf: b[:]})
			}
		}
	}
	m.mu.Unlock()
	r.replicas[best].m = nil
	r.leader = best
}

// Resync re-baselines every live mirror against the current leader copy —
// the hook CrashAll/RecoverAll use after rewriting region state through
// local writes (SetTSO, membership reset) that bypassed replication.
func (r *Replicator) Resync() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.track.reset()
	for _, rep := range r.replicas {
		if rep.m != nil && !rep.fenced {
			rep.m.reset()
		}
	}
}

// --- stats ------------------------------------------------------------------

// Stats is a point-in-time snapshot of the replication tier, and as it
// stands the pmfs section of the stats JSON: replica census, the pmfs epoch,
// the replication-protocol counters and quorum-ack latency.
type Stats struct {
	Replicas int    `json:"replicas"`
	Live     int    `json:"live"`
	Leader   int    `json:"leader"`
	Epoch    uint64 `json:"epoch"`
	// Failovers counts replica fail-stops absorbed (each advances Epoch
	// exactly once).
	Failovers int64 `json:"failovers"`
	// Grants counts replicated atomic post-images (TSO grants, CAS
	// publishes); MirroredWrites/MirroredBytes count replicated one-sided
	// writes.
	Grants         int64 `json:"grants"`
	MirroredWrites int64 `json:"mirrored_writes"`
	MirroredBytes  int64 `json:"mirrored_bytes"`
	// ReadRepairs counts divergent version words healed on quorum reads;
	// DupSuppressed counts duplicate records the seq gate refused to
	// re-apply; DegradedOps counts ops acknowledged below quorum.
	ReadRepairs   int64 `json:"read_repairs"`
	DupSuppressed int64 `json:"dup_suppressed"`
	DegradedOps   int64 `json:"degraded_ops"`
	// Quorum-ack latency (leader op + mirror applies, one doorbell batch).
	QuorumOps  int64         `json:"quorum_ops"`
	QuorumMean time.Duration `json:"quorum_mean_ns"`
	QuorumP50  time.Duration `json:"quorum_p50_ns"`
	QuorumP99  time.Duration `json:"quorum_p99_ns"`
}

// Snapshot returns the tier's current stats.
func (r *Replicator) Snapshot() Stats {
	r.mu.RLock()
	leader, live := r.replicas[r.leader].id, r.liveLocked()
	r.mu.RUnlock()
	return Stats{
		Replicas:       r.k,
		Live:           live,
		Leader:         leader,
		Epoch:          r.epoch.Load(),
		Failovers:      r.failovers.Load(),
		Grants:         r.grants.Load(),
		MirroredWrites: r.mirroredWrites.Load(),
		MirroredBytes:  r.mirroredBytes.Load(),
		ReadRepairs:    r.readRepairs.Load(),
		DupSuppressed:  r.dupSuppressed.Load(),
		DegradedOps:    r.degradedOps.Load(),
		QuorumOps:      r.quorumLat.Count(),
		QuorumMean:     r.quorumLat.Mean(),
		QuorumP50:      r.quorumLat.Quantile(0.50),
		QuorumP99:      r.quorumLat.Quantile(0.99),
	}
}
