package pmfsrep

import "sync"

// chunkSize is the version-word granularity: each replicated region is
// tracked as 256-byte chunks, each guarded by the sequence number of the
// last record that touched it. 256 bytes keeps heartbeat slots (24 B) and
// page frames (multi-KiB) both reasonable: a slot maps to one chunk, a frame
// push advances a handful.
const chunkSize = 256

// word is a mirrored 8-byte atomic cell: the post-image of the newest grant
// applied, guarded by that record's sequence. Values merge with a max rule —
// every PMFS word under atomics (TSO counter, epochs) is monotonic, so max
// is exactly the convergent merge and a replayed grant can never move a
// mirror backwards or double-advance it.
type word struct {
	seq uint64
	val uint64
}

// blockChunks is the mirror index's allocation unit: a block indexes 256
// chunks, 64 KiB of region, and is allocated when a write first touches it.
const blockChunks = 256

// block holds the version words of 256 consecutive chunks and their bytes,
// each chunk allocated on its first write; a nil chunk has not been written
// since the last resync.
type block struct {
	seq  [blockChunks]uint64
	data [blockChunks]*[chunkSize]byte
}

// mregion is one region's sparse mirror, its chunks indexed by number in two
// levels: dir[ci/blockChunks] is the chunk's block, nil while untouched. The
// directory of a 128 MiB region is 16 KiB and the rest of the memory follows
// what was written. An absent chunk means "unchanged since the resync
// baseline", which by construction equals the leader copy.
type mregion struct {
	dir   []*block
	words map[int]*word
}

// chunk returns chunk ci's version word and bytes. An untouched chunk is
// nil, nil unless alloc, which allocates it.
func (mr *mregion) chunk(ci int, alloc bool) (*uint64, []byte) {
	bi, i := ci/blockChunks, ci%blockChunks
	if bi >= len(mr.dir) {
		if !alloc {
			return nil, nil
		}
		mr.dir = append(mr.dir, make([]*block, bi+1-len(mr.dir))...)
	}
	b := mr.dir[bi]
	if b == nil || b.data[i] == nil {
		if !alloc {
			return nil, nil
		}
		if b == nil {
			b = new(block)
			mr.dir[bi] = b
		}
		b.data[i] = new([chunkSize]byte)
	}
	return &b.seq[i], b.data[i][:]
}

// mirror is one follower replica's copy of the replicated tier. All applies
// are seq-gated: a record whose Seq does not exceed the target chunk/word's
// version is a duplicate (or arrived out of order behind a newer write) and
// is not applied.
type mirror struct {
	mu      sync.Mutex
	regions map[string]*mregion
	lastSeq uint64 // highest record seq applied; promotion picks the max
}

func newMirror() *mirror {
	return &mirror{regions: make(map[string]*mregion)}
}

func (m *mirror) region(name string) *mregion {
	mr := m.regions[name]
	if mr == nil {
		mr = &mregion{words: make(map[int]*word)}
		m.regions[name] = mr
	}
	return mr
}

// apply merges one decoded record into the mirror. It returns false when the
// record was entirely stale or duplicate (no chunk or word advanced) — the
// no-double-advance guarantee for retried grants.
func (m *mirror) apply(rec Record) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mr := m.region(rec.Region)
	fresh := false
	switch rec.Kind {
	case RecWord:
		w := mr.words[int(rec.Off)]
		if w == nil {
			w = &word{}
			mr.words[int(rec.Off)] = w
		}
		if rec.Seq > w.seq {
			w.seq = rec.Seq
			if rec.Val > w.val {
				w.val = rec.Val
			}
			fresh = true
		}
	case RecWrite:
		off, n := int(rec.Off), len(rec.Data)
		if n == 0 {
			fresh = true // trivially applied
			break
		}
		for ci := off / chunkSize; ci <= (off+n-1)/chunkSize; ci++ {
			seq, data := mr.chunk(ci, true)
			if rec.Seq <= *seq {
				continue
			}
			base := ci * chunkSize
			lo, hi := max(off, base), min(off+n, base+chunkSize)
			copy(data[lo-base:hi-base], rec.Data[lo-off:hi-off])
			*seq = rec.Seq
			fresh = true
		}
	}
	if fresh && rec.Seq > m.lastSeq {
		m.lastSeq = rec.Seq
	}
	return fresh
}

// chunkSeq returns the version word of one chunk (0 = baseline / in sync).
func (m *mirror) chunkSeq(region string, ci int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mr := m.regions[region]; mr != nil {
		if seq, _ := mr.chunk(ci, false); seq != nil {
			return *seq
		}
	}
	return 0
}

// wordSeq returns the version word of one mirrored atomic cell.
func (m *mirror) wordSeq(region string, off int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mr := m.regions[region]; mr != nil {
		if w := mr.words[off]; w != nil {
			return w.seq
		}
	}
	return 0
}

// reset drops every mirrored extent, re-establishing "absent = in sync with
// the leader copy" as the baseline (post-failover resync, CrashAll).
func (m *mirror) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.regions = make(map[string]*mregion)
	m.lastSeq = 0
}

func (m *mirror) last() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSeq
}

// seqTrack is the leader-side version-word table: for every chunk and word
// of a quorum-read region it records the sequence of the newest record the
// leader shipped. Quorum reads compare follower version words against it to
// find divergence worth repairing; readRepair is its only reader, so other
// regions are not tracked.
type seqTrack struct {
	mu      sync.Mutex
	regions map[string]*trackRegion
}

type trackRegion struct {
	chunks map[int]uint64
	words  map[int]uint64
}

func newSeqTrack() *seqTrack {
	return &seqTrack{regions: make(map[string]*trackRegion)}
}

func (st *seqTrack) region(name string) *trackRegion {
	tr := st.regions[name]
	if tr == nil {
		tr = &trackRegion{chunks: make(map[int]uint64), words: make(map[int]uint64)}
		st.regions[name] = tr
	}
	return tr
}

func (st *seqTrack) noteWrite(region string, off, n int, seq uint64) {
	if n == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	tr := st.region(region)
	for ci := off / chunkSize; ci <= (off+n-1)/chunkSize; ci++ {
		if seq > tr.chunks[ci] {
			tr.chunks[ci] = seq
		}
	}
}

func (st *seqTrack) noteWord(region string, off int, seq uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	tr := st.region(region)
	if seq > tr.words[off] {
		tr.words[off] = seq
	}
}

func (st *seqTrack) chunkSeq(region string, ci int) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if tr := st.regions[region]; tr != nil {
		return tr.chunks[ci]
	}
	return 0
}

// wordsIn returns the (offset, seq) pairs of tracked words inside
// [off, off+n) — the cells a quorum read must verify.
func (st *seqTrack) wordsIn(region string, off, n int) map[int]uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	tr := st.regions[region]
	if tr == nil {
		return nil
	}
	var out map[int]uint64
	for wo, seq := range tr.words {
		if wo >= off && wo+8 <= off+n {
			if out == nil {
				out = make(map[int]uint64)
			}
			out[wo] = seq
		}
	}
	return out
}

func (st *seqTrack) reset() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.regions = make(map[string]*trackRegion)
}
