package lockfusion

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
	"polardbmp/internal/rdma"
	"polardbmp/internal/trace"
	"polardbmp/internal/wire"
)

// PLock RPC wire ops. Ops 2 and 3, the single-page release and revoke a
// protocol v2 peer sent, are gone: a release or a revoke of one page is a
// batch of one.
const (
	opPLockAcquire  = 1 // node, page, mode -> grant: the page's released LLSN (blocks until granted)
	_               = 2
	_               = 3
	opPLockReleaseN = 4 // node, count, count × (page, mode, LLSN)
	opRevokeN       = 5 // (node service) count, count × (page, wantNode, wantMode)
)

// llsnUnknown is the released LLSN of a page whose last X holder could not
// name the version it left (its image had left the buffer pool, or it died
// holding the page): above every real LLSN, so every cached copy is stale.
const llsnUnknown = common.LLSN(math.MaxUint64)

// plockAcquireReqBuf encodes an acquire — op, node, page, mode — plus a
// uint32 wait budget in microseconds (0 = unbounded), into a buffer with
// room for the epoch stamp. The budget rides the wire so the SERVER
// can bound the waiter's queue time: a client-side timer alone would leave
// the abandoned waiter queued, holding its FIFO slot against peers, until the
// backstop fired.
func plockAcquireReqBuf(node common.NodeID, pg common.PageID, mode Mode, budgetMicros uint32) []byte {
	b := wire.AppendU16(append(make([]byte, 0, 16+common.StampLen), opPLockAcquire), uint16(node))
	return wire.AppendU32(append(wire.AppendU64(b, uint64(pg)), byte(mode)), budgetMicros)
}

// deadlineBudgetMicros converts a deadline's remaining time to the uint32
// microsecond wire form: 0 for unbounded, clamped to [1, MaxUint32] when
// bounded (an already-expired budget still sends 1µs so the server answers
// promptly rather than treating it as unbounded).
func deadlineBudgetMicros(dl common.Deadline) uint32 {
	rem, bounded := dl.Remaining()
	if !bounded {
		return 0
	}
	us := rem.Microseconds()
	if us < 1 {
		return 1
	}
	if us > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(us)
}

// relPage is one element of a release; S releases carry llsn 0.
type relPage struct {
	pg   common.PageID
	mode Mode
	llsn common.LLSN
}

// relElemLen is the size of one release element: page, mode, LLSN.
const relElemLen = 17

// plockReleaseNBuf encodes a release: header (op, node, count)
// followed by count fixed-size elements, with room left for the epoch stamp.
func plockReleaseNBuf(node common.NodeID, pages []relPage) []byte {
	b := append(make([]byte, 0, 5+relElemLen*len(pages)+common.StampLen), opPLockReleaseN)
	b = wire.AppendU16(wire.AppendU16(b, uint16(node)), uint16(len(pages)))
	for _, p := range pages {
		b = append(wire.AppendU64(b, uint64(p.pg)), byte(p.mode))
		b = wire.AppendU64(b, uint64(p.llsn))
	}
	return b
}

// revokeItem is one page's negotiation element inside a revoke.
type revokeItem struct {
	pg       common.PageID
	wantNode common.NodeID
	wantMode Mode
}

// revokeElemLen is the size of one revoke element: page, wantNode,
// wantMode.
const revokeElemLen = 11

func revokeNBuf(items []revokeItem) []byte {
	b := append(make([]byte, 0, 3+revokeElemLen*len(items)), opRevokeN)
	b = wire.AppendU16(b, uint16(len(items)))
	for _, it := range items {
		b = wire.AppendU16(wire.AppendU64(b, uint64(it.pg)), uint16(it.wantNode))
		b = append(b, byte(it.wantMode))
	}
	return b
}

// plockStripes shards the server lock table. 16 stripes keeps the per-stripe
// collision probability negligible at the bench's 8 nodes × 3 threads (≤24
// concurrent requesters) while staying small enough that whole-table walks
// (MarkDead, HeldBy) stay cheap.
const plockStripes = 16

// PLockServer is the PMFS-side PLock manager: one entry per page, FIFO
// waiter queues, negotiation messages to lazy holders. The page table is
// striped so unrelated pages never contend on one mutex.
type PLockServer struct {
	fabric rdma.Conn
	gate   common.EpochGate

	stripes [plockStripes]plockStripe

	// dead is read under every stripe's grant path, so it lives behind its
	// own RWMutex. Lock order: stripe.mu, then deadMu (read side only);
	// writers (MarkDead/dropNode) take deadMu alone.
	deadMu sync.RWMutex
	dead   map[common.NodeID]bool

	// Grants counts lock grants; Negotiations counts revoke RPCs sent (a
	// coalesced multi-page revoke counts once — it IS one message; the
	// message-overhead metric behind lazy release, §4.3.1).
	Grants       metrics.Counter
	Negotiations metrics.Counter
}

type plockStripe struct {
	mu      sync.Mutex
	entries map[common.PageID]*plockEntry
	// released is, per page, the LLSN its last X holder released: the
	// version every grant returns. It outlives the page's lock entry.
	released map[common.PageID]common.LLSN
}

type plockEntry struct {
	holders map[common.NodeID]Mode
	queue   []*plockWaiter
	// revoked records when each conflicting holder was last sent a
	// negotiation message: fresh entries suppress repeats while a release
	// is in flight, but an entry older than plockRevokeResend is re-sent.
	// Without the expiry a revoke lost to a network partition (delivery
	// retries span only milliseconds) would wedge the page forever — the
	// lazy holder never learns anyone wants it, and every later waiter is
	// suppressed by the stale mark.
	revoked map[common.NodeID]time.Time
}

// plockRevokeResend is how long a sent negotiation message suppresses
// re-sending. Normal release round-trips finish in microseconds, so the
// resend only fires when the revoke (or the answering release) was lost to
// a link fault; re-delivery is idempotent on the holder.
const plockRevokeResend = 250 * time.Millisecond

type plockWaiter struct {
	node    common.NodeID
	mode    Mode
	granted chan struct{}
	err     error       // set before granted is closed on failure
	llsn    common.LLSN // the page's released LLSN, set before granted is closed on a grant
}

func newPLockServer(ep *rdma.Endpoint, fabric *rdma.Fabric) *PLockServer {
	s := &PLockServer{
		fabric: fabric.From(ep.Node()),
		dead:   make(map[common.NodeID]bool),
	}
	for i := range s.stripes {
		s.stripes[i].entries = make(map[common.PageID]*plockEntry)
		s.stripes[i].released = make(map[common.PageID]common.LLSN)
	}
	ep.Serve(ServicePLock, s.handle)
	return s
}

func (s *PLockServer) stripeOf(pg common.PageID) *plockStripe {
	return &s.stripes[uint64(pg)%plockStripes]
}

func (s *PLockServer) isDead(node common.NodeID) bool {
	s.deadMu.RLock()
	d := s.dead[node]
	s.deadMu.RUnlock()
	return d
}

// SetEpochGate installs the membership epoch gate: stamped requests from
// evicted incarnations are rejected with ErrStaleEpoch before they can
// mutate the lock table.
func (s *PLockServer) SetEpochGate(g common.EpochGate) { s.gate = g }

func (s *PLockServer) handle(req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	op := rd.U8()
	node := common.NodeID(rd.U16())
	switch op {
	case opPLockAcquire:
		pg, mode, budget := common.PageID(rd.U64()), Mode(rd.U8()), rd.U32()
		if err := s.admit(rd, node, mode.valid()); err != nil {
			return nil, err
		}
		llsn, err := s.acquire(node, pg, mode, budget)
		if err != nil {
			return nil, err
		}
		return wire.AppendU64(nil, uint64(llsn)), nil
	case opPLockReleaseN:
		pages := make([]relPage, rd.Count(uint32(rd.U16()), relElemLen))
		valid := true
		for i := range pages {
			pages[i] = relPage{pg: common.PageID(rd.U64()), mode: Mode(rd.U8()), llsn: common.LLSN(rd.U64())}
			valid = valid && pages[i].mode.valid()
		}
		if err := s.admit(rd, node, valid); err != nil {
			return nil, err
		}
		s.releaseN(node, pages)
		return nil, nil
	default:
		return nil, fmt.Errorf("plock: op %d: %w", op, common.ErrNoService)
	}
}

// admit ends a decoded request before it touches the lock table: it refuses
// a mode outside {S, X}, then a payload that is not consumed exactly by its
// fields and the optional epoch stamp, then a stale stamp.
func (s *PLockServer) admit(rd *wire.Reader, node common.NodeID, modesValid bool) error {
	if !modesValid {
		return fmt.Errorf("plock: mode outside {S, X}: %w", common.ErrCorrupt)
	}
	epoch := rd.Epoch()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("plock: %w", err)
	}
	if s.gate != nil {
		return s.gate(node, epoch)
	}
	return nil
}

func (st *plockStripe) entry(pg common.PageID) *plockEntry {
	e := st.entries[pg]
	if e == nil {
		e = &plockEntry{
			holders: make(map[common.NodeID]Mode),
			revoked: make(map[common.NodeID]time.Time),
		}
		st.entries[pg] = e
	}
	return e
}

// acquire blocks until the PLock is granted to node. Grants are FIFO per
// page so a lazy holder cannot starve remote requesters (§4.3.1). A request
// conflicting with a crashed node's retained lock fails fast with ErrFenced
// (retryable): blocking would let live transactions hold-and-wait against a
// fence only that node's recovery can lift.
//
// budgetMicros is the requester's remaining deadline budget (0 = none): the
// wait is capped at min(budget, backstop), and a budget-capped expiry
// returns ErrDeadlineExceeded — non-retryable, unlike the backstop's
// ErrLockTimeout — so the transaction's end-to-end bound holds even while
// it is queued here.
//
// A grant returns the page's released LLSN.
func (s *PLockServer) acquire(node common.NodeID, pg common.PageID, mode Mode, budgetMicros uint32) (common.LLSN, error) {
	st := s.stripeOf(pg)
	st.mu.Lock()
	e := st.entry(pg)
	if held, ok := e.holders[node]; ok && held.Covers(mode) {
		// Idempotent re-grant (e.g. the release raced a new acquire,
		// or a recovering incarnation reclaiming its fenced lock).
		llsn := st.released[pg]
		st.mu.Unlock()
		return llsn, nil
	}
	for holder, held := range e.holders {
		// A fence only ever blocks OTHER nodes: the crashed holder's own
		// recovering incarnation reclaims through the idempotent path
		// above, and two dead nodes must not wait on each other.
		if holder != node && s.isDead(holder) && !compatible(held, mode) {
			st.mu.Unlock()
			return 0, fmt.Errorf("plock: page %d held by crashed node %d: %w",
				pg, holder, common.ErrFenced)
		}
	}
	w := &plockWaiter{node: node, mode: mode, granted: make(chan struct{})}
	e.queue = append(e.queue, w)
	revokees := s.tryGrantLocked(st, pg, e)
	st.mu.Unlock()
	s.sendRevokes([]pendingRevokes{{pg, revokees}})

	wait := plockWaitBackstop
	deadlineBound := false
	if budgetMicros > 0 {
		if b := time.Duration(budgetMicros) * time.Microsecond; b < wait {
			wait = b
			deadlineBound = true
		}
	}
	deadline := time.Now().Add(wait)
	for {
		tick := plockRevokeResend
		if rem := time.Until(deadline); rem < tick {
			tick = rem
		}
		select {
		case <-w.granted:
			return w.llsn, w.err
		case <-time.After(tick):
		}
		if time.Now().Before(deadline) {
			// Still waiting: the negotiation sent when we queued (or the
			// release answering it) may have been lost to a link fault.
			// Re-collect for the current head — the time-based suppression
			// in collectRevokeesLocked makes this at most one redelivery
			// per holder per resend interval, and redelivery is idempotent.
			st.mu.Lock()
			var revokees []revokeTarget
			if len(e.queue) > 0 {
				revokees = s.collectRevokeesLocked(e, e.queue[0])
			}
			st.mu.Unlock()
			s.sendRevokes([]pendingRevokes{{pg, revokees}})
			continue
		}
		// Expired: remove the waiter if still queued; if the grant raced
		// the timeout, accept it.
		st.mu.Lock()
		for i, q := range e.queue {
			if q == w {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				st.mu.Unlock()
				if deadlineBound {
					return 0, fmt.Errorf("plock: page %d mode %v for node %d: wait budget spent: %w",
						pg, mode, node, common.ErrDeadlineExceeded)
				}
				return 0, fmt.Errorf("plock: page %d mode %v for node %d: %w",
					pg, mode, node, common.ErrLockTimeout)
			}
		}
		st.mu.Unlock()
		<-w.granted
		return w.llsn, w.err
	}
}

// MarkDead records that node crashed: its retained PLocks become a fence
// that fails conflicting requests fast, and waiters already blocked behind
// it are failed so they release what they hold and retry.
func (s *PLockServer) MarkDead(node common.NodeID) {
	n := common.NodeID(node)
	s.deadMu.Lock()
	s.dead[n] = true
	s.deadMu.Unlock()
	var pending []pendingRevokes
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for pg, e := range st.entries {
			if _, holds := e.holders[n]; !holds {
				continue
			}
			kept := e.queue[:0]
			for _, w := range e.queue {
				if w.node != n && !compatible(e.holders[n], w.mode) {
					w.err = fmt.Errorf("plock: page %d held by crashed node %d: %w",
						pg, n, common.ErrFenced)
					close(w.granted)
					continue
				}
				kept = append(kept, w)
			}
			e.queue = kept
			pending = append(pending, pendingRevokes{pg, s.tryGrantLocked(st, pg, e)})
		}
		st.mu.Unlock()
	}
	s.sendRevokes(pending)
}

// pendingRevokes pairs a page with its queued negotiation messages.
type pendingRevokes struct {
	pg      common.PageID
	targets []revokeTarget
}

// plockWaitBackstop bounds server-side waits. It is intentionally generous:
// engine-level acquisition order makes PLock deadlocks impossible, so this
// only fires on bugs or crashed holders not yet dropped.
const plockWaitBackstop = 10 * time.Second

// revokeTarget is one negotiation message to send once the table lock is
// released.
type revokeTarget struct {
	holder   common.NodeID
	wantNode common.NodeID
	wantMode Mode
}

// sendRevokes delivers negotiation messages outside the table locks (the
// holder's revoke handler may synchronously call back with a release). All
// pages bound for the same holder coalesce into ONE revoke RPC — the
// doorbell-batching analogue for negotiation traffic, which matters when a
// release or crash cleanup unblocks waiters on many pages at once.
// Revoke delivery is retried on transient fabric faults: a lost revoke
// would strand the waiter until the lazy holder releases on its own, and
// re-delivery is idempotent (it only sets the holder's revokePending flag).
func (s *PLockServer) sendRevokes(pending []pendingRevokes) {
	var byHolder map[common.NodeID][]revokeItem
	for _, p := range pending {
		for _, t := range p.targets {
			if byHolder == nil {
				byHolder = make(map[common.NodeID][]revokeItem)
			}
			byHolder[t.holder] = append(byHolder[t.holder],
				revokeItem{pg: p.pg, wantNode: t.wantNode, wantMode: t.wantMode})
		}
	}
	for holder, items := range byHolder {
		s.Negotiations.Inc()
		_, _ = s.fabric.Call(holder, ServiceRevoke, revokeNBuf(items))
	}
}

// collectRevokeesLocked returns the holders that conflict with the queue
// head and have not yet been sent a negotiation message.
func (s *PLockServer) collectRevokeesLocked(e *plockEntry, head *plockWaiter) []revokeTarget {
	var out []revokeTarget
	for holder, held := range e.holders {
		if holder == head.node || s.isDead(holder) {
			// A dead-marked node holds only what its crashed incarnation
			// held (its recovery re-grants that fence set and acquires
			// nothing else before dropNode lifts the mark), and nobody
			// answers for it: the fence handles those pages.
			continue
		}
		if !compatible(held, head.mode) {
			if last, sent := e.revoked[holder]; !sent || time.Since(last) > plockRevokeResend {
				e.revoked[holder] = time.Now()
				out = append(out, revokeTarget{holder: holder, wantNode: head.node, wantMode: head.mode})
			}
		}
	}
	return out
}

// tryGrantLocked grants queue-head waiters while they are compatible with
// the remaining holders (and with each other: a run of S waiters is granted
// together). When it stops with a blocked head, it returns the negotiation
// messages the caller must send after unlocking — computed HERE, on every
// state change, because a waiter that becomes head only after earlier
// grants would otherwise never trigger negotiation and the queue would
// wedge behind a lazy holder. Each grant hands the waiter the page's
// released LLSN. Callers hold the stripe mutex of pg's entry e.
func (s *PLockServer) tryGrantLocked(st *plockStripe, pg common.PageID, e *plockEntry) []revokeTarget {
	for len(e.queue) > 0 {
		w := e.queue[0]
		ok := true
		for holder, held := range e.holders {
			if holder == w.node {
				// The node's own (possibly weaker) holdership never
				// blocks its request: upgrades don't occur in the
				// live protocol (clients release before acquiring a
				// stronger mode), so this only fires when a
				// recovering incarnation reclaims its crashed
				// predecessor's lock in a stronger mode.
				continue
			}
			if !compatible(held, w.mode) {
				ok = false
				break
			}
		}
		if !ok {
			return s.collectRevokeesLocked(e, w)
		}
		if cur, isHolder := e.holders[w.node]; !isHolder || w.mode > cur {
			e.holders[w.node] = w.mode
		}
		delete(e.revoked, w.node)
		e.queue = e.queue[1:]
		s.Grants.Inc()
		w.llsn = st.released[pg]
		close(w.granted)
	}
	return nil
}

// releaseOneLocked removes node's hold on p.pg and grants any unblocked
// waiters, after recording an X holder's released LLSN. Only a current X
// holder sets it: a re-delivered release must not roll the version back.
func (s *PLockServer) releaseOneLocked(st *plockStripe, node common.NodeID, p relPage) []revokeTarget {
	e := st.entries[p.pg]
	if e == nil {
		return nil
	}
	if e.holders[node] == ModeX {
		st.released[p.pg] = p.llsn
	}
	delete(e.holders, node)
	delete(e.revoked, node)
	revokees := s.tryGrantLocked(st, p.pg, e)
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(st.entries, p.pg)
	}
	return revokees
}

// releaseN removes node's hold on every page in one table pass, grouping
// pages by stripe so each stripe mutex is taken once, then sends all
// resulting negotiation messages coalesced per holder.
func (s *PLockServer) releaseN(node common.NodeID, pages []relPage) {
	byStripe := make(map[*plockStripe][]relPage)
	for _, p := range pages {
		st := s.stripeOf(p.pg)
		byStripe[st] = append(byStripe[st], p)
	}
	var pending []pendingRevokes
	for st, ps := range byStripe {
		st.mu.Lock()
		for _, p := range ps {
			pending = append(pending, pendingRevokes{p.pg, s.releaseOneLocked(st, node, p)})
		}
		st.mu.Unlock()
	}
	s.sendRevokes(pending)
}

// dropNode force-releases everything node holds or awaits and lifts its dead
// mark: the fence comes down once recovery has repaired it. Any X page still
// held was never released, so its newest changes may exist only in the log
// recovery replayed: its version becomes llsnUnknown.
func (s *PLockServer) dropNode(node uint16) {
	n := common.NodeID(node)
	s.deadMu.Lock()
	delete(s.dead, n)
	s.deadMu.Unlock()
	var pending []pendingRevokes
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for pg, e := range st.entries {
			if e.holders[n] == ModeX {
				st.released[pg] = llsnUnknown
			}
			delete(e.holders, n)
			delete(e.revoked, n)
			filtered := e.queue[:0]
			for _, w := range e.queue {
				if w.node == n {
					close(w.granted) // unblock; the caller's fabric call fails anyway
					continue
				}
				filtered = append(filtered, w)
			}
			e.queue = filtered
			pending = append(pending, pendingRevokes{pg, s.tryGrantLocked(st, pg, e)})
			if len(e.holders) == 0 && len(e.queue) == 0 {
				delete(st.entries, pg)
			}
		}
		st.mu.Unlock()
	}
	s.sendRevokes(pending)
}

// DebugDump renders the lock table state (diagnostics).
func (s *PLockServer) DebugDump() string {
	out := ""
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for pg, e := range st.entries {
			out += fmt.Sprintf("page %d: holders=%v revoked=%v queue=[", pg, e.holders, e.revoked)
			for _, w := range e.queue {
				out += fmt.Sprintf("{n%d %v} ", w.node, w.mode)
			}
			out += "]\n"
		}
		st.mu.Unlock()
	}
	return out
}

// HeldBy returns every page node currently holds and in which mode. A crashed
// node's X pages are its fence set, all its recovery replays: the only pages
// whose latest contents may exist solely in its log (flush-before-release
// pushed everything else before its lock left the node).
func (s *PLockServer) HeldBy(node common.NodeID) map[common.PageID]Mode {
	out := make(map[common.PageID]Mode)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for pg, e := range st.entries {
			if m, ok := e.holders[node]; ok {
				out[pg] = m
			}
		}
		st.mu.Unlock()
	}
	return out
}

// QueuedWaiters returns the number of blocked acquire waiters across all
// stripes (tests).
func (s *PLockServer) QueuedWaiters() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for _, e := range st.entries {
			n += len(e.queue)
		}
		st.mu.Unlock()
	}
	return n
}

// HolderCount returns the number of pages with at least one holder (tests).
func (s *PLockServer) HolderCount() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for _, e := range st.entries {
			if len(e.holders) > 0 {
				n++
			}
		}
		st.mu.Unlock()
	}
	return n
}

// --- client ----------------------------------------------------------------

// RevokeFunc is called by the PLock client when PMFS asks the node to give a
// page back. The engine uses it to flush the dirty page to the DBP (forcing
// logs first) before the lock leaves the node (§4.2/§4.3.1). It runs before
// the release RPC is sent. A non-nil error vetoes the release of that page:
// the hold is retained server-side, because handing the lock to a peer whose
// DBP image is missing the flush would fork the page's lineage. A live node
// keeps the lock and the next revoke resend retries the flush; the one
// non-transient source of flush failure is this node crashing mid-revoke —
// retaining the hold is then exactly what keeps the page fenced until the
// restarted incarnation replays it.
type RevokeFunc func(pg common.PageID, held Mode) error

// PageVersions is the node's buffer pool as the PLock client sees it. A
// page's version is its LLSN (§4.4), which every change advances.
type PageVersions interface {
	// PageLLSN reports the LLSN of pg's cached image (ok false: not cached).
	PageLLSN(pg common.PageID) (llsn common.LLSN, ok bool)
	// Granted hands over a grant's LLSN before any local thread can use the
	// lock: a cached copy below it is stale.
	Granted(pg common.PageID, llsn common.LLSN)
}

// PLockClient is a node's PLock manager: it tracks locks the node holds,
// reference counts from local threads, lazy retention, and pending revokes.
type PLockClient struct {
	node   common.NodeID
	fabric rdma.Conn
	cfg    Config

	onRevoke RevokeFunc
	pages    PageVersions
	closed   atomic.Bool
	tr       *trace.Tracer

	mu    sync.Mutex
	locks map[common.PageID]*localPLock
	// releasing tracks pages with an in-flight release RPC; a fresh
	// acquire for such a page must wait or the server could grant
	// against holdership the release is about to remove.
	releasing map[common.PageID]bool
	relCond   *sync.Cond

	// LocalGrants / RemoteAcquires measure the lazy-release fast path.
	LocalGrants    metrics.Counter
	RemoteAcquires metrics.Counter
}

type localPLock struct {
	mode          Mode
	refs          int
	revokePending bool
	// acquiring serializes remote acquisition for the same page from
	// multiple local threads.
	acquiring bool
	cond      *sync.Cond
}

// NewPLockClient registers the node's revoke service and returns the client.
func NewPLockClient(ep *rdma.Endpoint, fabric *rdma.Fabric, cfg Config) *PLockClient {
	cfg.fill()
	c := &PLockClient{
		node:      ep.Node(),
		fabric:    fabric.From(ep.Node()),
		cfg:       cfg,
		locks:     make(map[common.PageID]*localPLock),
		releasing: make(map[common.PageID]bool),
	}
	c.relCond = sync.NewCond(&c.mu)
	ep.Serve(ServiceRevoke, c.handleRevoke)
	return c
}

// SetRevokeHandler installs the engine's flush-before-release hook. Must be
// called before the node serves traffic.
func (c *PLockClient) SetRevokeHandler(f RevokeFunc) { c.onRevoke = f }

// SetPageVersions connects the client to the node's buffer pool before it
// serves traffic; without it X releases report their version unknown.
func (c *PLockClient) SetPageVersions(v PageVersions) { c.pages = v }

// SetTracer attaches the node's commit-path tracer (nil disables). Every
// successful acquire is observed as StagePLockLocal (lazy-retention grant)
// or StagePLockRemote (Lock Fusion RPC, revoke waits included).
func (c *PLockClient) SetTracer(t *trace.Tracer) { c.tr = t }

func (c *PLockClient) handleRevoke(req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	if op := rd.U8(); op != opRevokeN {
		return nil, fmt.Errorf("plock: revoke op %d: %w", op, common.ErrNoService)
	}
	items := make([]revokeItem, rd.Count(uint32(rd.U16()), revokeElemLen))
	for i := range items {
		pg, wantNode := common.PageID(rd.U64()), common.NodeID(rd.U16())
		items[i] = revokeItem{pg: pg, wantNode: wantNode, wantMode: Mode(rd.U8())}
	}
	for _, it := range items {
		if !it.wantMode.valid() {
			return nil, fmt.Errorf("plock: revoke of page %d for mode %d: %w", it.pg, it.wantMode, common.ErrCorrupt)
		}
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("plock: revoke: %w", err)
	}
	// Mark every page's revoke pending under ONE mutex hold, collecting the
	// idle ones we must hand back ourselves; busy pages (refs>0 or a local
	// thread mid-acquisition) hand over at their next unref.
	c.mu.Lock()
	var idle []relPage
	for _, it := range items {
		pg := it.pg
		l := c.locks[pg]
		if l == nil {
			// Already released (race with our own release): nothing to do.
			continue
		}
		l.revokePending = true
		if l.refs > 0 || l.acquiring {
			continue
		}
		idle = append(idle, relPage{pg: pg, mode: l.mode})
		delete(c.locks, pg)
		c.releasing[pg] = true
	}
	c.mu.Unlock()
	c.releaseToServerN(idle)
	return nil, nil
}

// Acquire obtains the PLock for pg in the given mode for one local user.
// The fast path grants locally when the node already holds a covering mode
// and no negotiation is pending (§4.3.1); otherwise it RPCs Lock Fusion.
func (c *PLockClient) Acquire(pg common.PageID, mode Mode) error {
	_, err := c.AcquireDeadlineEx(pg, mode, common.Deadline{})
	return err
}

// AcquireDeadlineEx is Acquire plus classification — remote reports whether
// the grant needed a Lock Fusion RPC (slow path) rather than lazy retention
// — bounded by the caller's deadline: the remaining budget rides the acquire
// RPC so the SERVER caps the queue wait (returning ErrDeadlineExceeded on
// expiry), and the retry loop around the RPC stops at the budget too. The
// local fast path is unaffected — a lock the node already holds costs no
// wait. A zero deadline is unbounded.
func (c *PLockClient) AcquireDeadlineEx(pg common.PageID, mode Mode, dl common.Deadline) (remote bool, err error) {
	if c.closed.Load() {
		return false, fmt.Errorf("plock: node %d client: %w", c.node, common.ErrClosed)
	}
	tok := c.tr.Start()
	c.mu.Lock()
	for {
		if c.closed.Load() {
			c.mu.Unlock()
			return false, fmt.Errorf("plock: node %d client: %w", c.node, common.ErrClosed)
		}
		if c.releasing[pg] {
			c.relCond.Wait()
			continue
		}
		l := c.locks[pg]
		if l == nil {
			l = &localPLock{}
			l.cond = sync.NewCond(&c.mu)
			c.locks[pg] = l
		}
		if l.cond == nil {
			l.cond = sync.NewCond(&c.mu)
		}
		// Fast path: covering mode held, no revoke pending, and lazy
		// retention enabled (a fresh grant always passes through the
		// server, so refs>0 grants are always legal to share).
		if l.mode.Covers(mode) && !l.revokePending && (!c.cfg.DisableLazyRelease || l.refs > 0) {
			l.refs++
			c.mu.Unlock()
			c.LocalGrants.Inc()
			c.tr.Observe(trace.StagePLockLocal, tok)
			return false, nil
		}
		if l.revokePending || l.acquiring || (l.mode != 0 && !l.mode.Covers(mode)) {
			// Someone must first finish releasing or acquiring;
			// wait for the state to settle. (A non-covering held
			// mode means local S holders must drain before we can
			// fetch X — the no-upgrade rule.)
			if l.refs == 0 && l.revokePending && !l.acquiring {
				// We are the ones who must complete the revoke.
				mode0 := l.mode
				delete(c.locks, pg)
				c.releasing[pg] = true
				c.mu.Unlock()
				c.releaseToServerN([]relPage{{pg: pg, mode: mode0}})
				c.mu.Lock()
				continue
			}
			if l.refs == 0 && l.mode != 0 && !l.mode.Covers(mode) && !l.acquiring {
				// Voluntarily give back the weaker lock, then
				// acquire the stronger one fresh.
				mode0 := l.mode
				delete(c.locks, pg)
				c.releasing[pg] = true
				c.mu.Unlock()
				c.releaseToServerN([]relPage{{pg: pg, mode: mode0}})
				c.mu.Lock()
				continue
			}
			l.cond.Wait()
			continue
		}
		// Slow path: fetch from the server.
		l.acquiring = true
		c.mu.Unlock()
		c.RemoteAcquires.Inc()
		// The server's acquire path is idempotent (a holder re-acquiring is
		// re-granted), so lost requests and lost responses both retry safely.
		// The loop is ours, around a single-shot Conn, because the wait
		// budget is re-derived per attempt: a retry after backoff must tell
		// the server how much budget is actually left.
		one := c.fabric.WithDeadline(dl).WithRetry(common.NoRetryPolicy())
		llsn := llsnUnknown
		err := common.RetryDeadline(c.fabric.RetryPolicy(), dl, func() error {
			resp, e := one.Call(common.PMFSNode, ServicePLock, plockAcquireReqBuf(c.node, pg, mode, deadlineBudgetMicros(dl)))
			if rd := wire.NewReader(resp); e == nil {
				if v := common.LLSN(rd.U64()); rd.Done() == nil {
					llsn = v
				}
			}
			return e
		})
		if err == nil && c.pages != nil {
			// Before l.mode is set: once it is, a sibling thread can take
			// the local fast path and read the cached copy.
			c.pages.Granted(pg, llsn)
		}
		c.mu.Lock()
		l.acquiring = false
		if err != nil {
			if l.refs == 0 && l.mode == 0 {
				delete(c.locks, pg)
			}
			l.cond.Broadcast()
			c.mu.Unlock()
			return true, err
		}
		if mode > l.mode {
			l.mode = mode
		}
		l.refs++
		l.cond.Broadcast()
		c.mu.Unlock()
		c.tr.Observe(trace.StagePLockRemote, tok)
		return true, nil
	}
}

// Release drops one local reference. With lazy retention the node keeps the
// PLock; if PMFS asked for it back (or lazy retention is disabled), the last
// unref flushes via the revoke hook and releases it to the server.
func (c *PLockClient) Release(pg common.PageID) {
	c.mu.Lock()
	l := c.locks[pg]
	if l == nil || l.refs == 0 {
		c.mu.Unlock()
		if c.closed.Load() {
			// A zombie thread of a crashed node racing teardown; its
			// holdership is reclaimed by recovery's DropNodePLock.
			return
		}
		panic(fmt.Sprintf("plock: release of un-held page %d on node %d", pg, c.node))
	}
	l.refs--
	if l.refs > 0 {
		c.mu.Unlock()
		return
	}
	if !l.revokePending && !c.cfg.DisableLazyRelease {
		l.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	mode := l.mode
	delete(c.locks, pg)
	c.releasing[pg] = true
	l.cond.Broadcast()
	c.mu.Unlock()
	c.releaseToServerN([]relPage{{pg: pg, mode: mode}})
}

// releaseToServerN runs the engine flush hook for every page, then returns
// the whole set to PMFS in ONE release RPC. Callers must have removed each
// page's map entry and set releasing[pg] under c.mu before calling, so no
// fresh acquire can overtake the release. The flush hooks all complete
// BEFORE the RPC is sent: the server never learns of a release whose page
// image is still mid-flush, which is what makes batching safe against a
// concurrent re-grant to another node.
func (c *PLockClient) releaseToServerN(pages []relPage) {
	if len(pages) == 0 {
		return
	}
	if c.closed.Load() {
		// A crashed node's zombie goroutine must not mutate server
		// state that now belongs to the node's restarted incarnation.
		c.mu.Lock()
		for _, p := range pages {
			delete(c.releasing, p.pg)
		}
		c.relCond.Broadcast()
		c.mu.Unlock()
		return
	}
	if c.onRevoke != nil {
		kept := pages[:0]
		var vetoed []relPage
		for _, p := range pages {
			if err := c.onRevoke(p.pg, p.mode); err != nil {
				// Flush failed: the page image never reached the DBP,
				// so the lock must NOT leave this node. Dropping the
				// page from the release batch retains the server-side
				// hold; if the failure is a crash of this node, the
				// retained hold is what MarkDead fences until the
				// restarted incarnation replays the page.
				vetoed = append(vetoed, p)
				continue
			}
			kept = append(kept, p)
		}
		pages = kept
		if len(vetoed) > 0 {
			c.mu.Lock()
			for _, p := range vetoed {
				delete(c.releasing, p.pg)
				// The hold is still ours: track it again, so the server's
				// revoke resend finds it and retries the flush.
				if c.locks[p.pg] == nil {
					c.locks[p.pg] = &localPLock{mode: p.mode, cond: sync.NewCond(&c.mu)}
				}
			}
			c.relCond.Broadcast()
			c.mu.Unlock()
		}
		if len(pages) == 0 {
			return
		}
	}
	for i := range pages {
		if pages[i].mode == ModeX {
			pages[i].llsn = c.releasedLLSN(pages[i].pg)
		}
	}
	// A dropped release would leave PMFS believing we still hold the locks,
	// stalling every waiter until the backstop: retry until delivered. The
	// batch is idempotent (releasing an un-held page is a no-op), so a
	// duplicate delivery after a lost response is harmless.
	_, _ = c.fabric.Call(common.PMFSNode, ServicePLock, plockReleaseNBuf(c.node, pages))
	c.mu.Lock()
	for _, p := range pages {
		delete(c.releasing, p.pg)
		if l := c.locks[p.pg]; l != nil && l.cond != nil {
			l.cond.Broadcast()
		}
	}
	c.relCond.Broadcast()
	c.mu.Unlock()
}

// releasedLLSN is the version an X release of pg leaves behind: its cached
// image's LLSN, or llsnUnknown once the image has left the buffer pool.
func (c *PLockClient) releasedLLSN(pg common.PageID) common.LLSN {
	if c.pages == nil {
		return llsnUnknown
	}
	if llsn, ok := c.pages.PageLLSN(pg); ok {
		return llsn
	}
	return llsnUnknown
}

// ReleaseAll force-releases every retained lock (shutdown / ablation /
// cache-drop) in one batched RPC. Locks with live references are skipped,
// and so are entries a local thread is mid-acquisition on: that thread holds
// the entry and takes its reference on it when the grant lands, so dropping
// it here would orphan the reference (its Release then finds no entry) and
// race a release against the in-flight grant.
func (c *PLockClient) ReleaseAll() {
	c.mu.Lock()
	var idle []relPage
	for pg, l := range c.locks {
		if l.refs == 0 && !l.acquiring {
			idle = append(idle, relPage{pg: pg, mode: l.mode})
			delete(c.locks, pg)
			c.releasing[pg] = true
		}
	}
	c.mu.Unlock()
	c.releaseToServerN(idle)
}

// Retained returns how many locks the client currently holds (the
// lazy-release cache plus any referenced locks) — the quantity a graceful
// drain must bring to zero before it fences the incarnation.
func (c *PLockClient) Retained() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.locks)
}

// Close fences the client after a node crash: no further acquisitions or
// server releases are issued.
func (c *PLockClient) Close() { c.closed.Store(true) }

// HeldMode returns the mode the node currently holds for pg (0 if none).
func (c *PLockClient) HeldMode(pg common.PageID) Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.locks[pg]; l != nil {
		return l.mode
	}
	return 0
}

// RevokePending reports whether PMFS has asked for pg back (a peer is
// waiting on it). The engine uses it to decide which committed pages are
// worth pushing to the DBP eagerly.
func (c *PLockClient) RevokePending(pg common.PageID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.locks[pg]
	return l != nil && l.revokePending
}
