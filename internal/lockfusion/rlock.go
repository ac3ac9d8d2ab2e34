package lockfusion

import (
	"fmt"
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
	"polardbmp/internal/rdma"
	"polardbmp/internal/txfusion"
	"polardbmp/internal/wire"
)

// RLock RPC wire ops (ServiceRLock on PMFS, ServiceWake on nodes).
const (
	opWaitFor    = 1 // waiter gtrx, holder gtrx -> ok | deadlock
	opCancelWait = 2 // waiter gtrx
	opCommitted  = 3 // holder gtrx (holder finished; wake its waiters)
	opWake       = 4 // waiter gtrx (node-side)
)

// RLockServer keeps only the wait-for relation (§4.3.2): which transaction
// waits for which, plus where to send the wakeup. Lock state itself lives in
// the rows.
type RLockServer struct {
	fabric rdma.Conn
	gate   common.EpochGate

	mu sync.Mutex
	// edges maps waiter -> holder (a transaction waits for at most one
	// lock at a time under two-phase row locking).
	edges map[common.GTrxID]common.GTrxID
	// waiters maps holder -> the set of transactions waiting for it.
	waiters map[common.GTrxID][]common.GTrxID

	// Deadlocks counts victims chosen by cycle detection.
	Deadlocks metrics.Counter
	// Waits counts registered wait edges.
	Waits metrics.Counter
}

func newRLockServer(ep *rdma.Endpoint, fabric *rdma.Fabric) *RLockServer {
	s := &RLockServer{
		fabric:  fabric.From(ep.Node()),
		edges:   make(map[common.GTrxID]common.GTrxID),
		waiters: make(map[common.GTrxID][]common.GTrxID),
	}
	ep.Serve(ServiceRLock, s.handle)
	return s
}

// SetEpochGate installs the membership epoch gate; stamped requests from
// evicted incarnations are rejected with ErrStaleEpoch.
func (s *RLockServer) SetEpochGate(g common.EpochGate) { s.gate = g }

func marshalTwoG(op byte, a, b common.GTrxID) []byte {
	buf := make([]byte, 0, 1+2*common.GTrxIDSize+common.StampLen)
	buf = append(buf, op)
	buf = a.Marshal(buf)
	buf = b.Marshal(buf)
	return buf
}

func (s *RLockServer) handle(req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	op := rd.U8()
	// The first gtrx always belongs to the calling node (the waiter for
	// waitFor/cancelWait, the holder for committed).
	a, b := rd.GTrx(), rd.GTrx()
	if op < opWaitFor || op > opCommitted {
		return nil, fmt.Errorf("rlock: op %d: %w", op, common.ErrNoService)
	}
	epoch := rd.Epoch()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("rlock: %w", err)
	}
	if s.gate != nil {
		if err := s.gate(a.Node, epoch); err != nil {
			return nil, err
		}
	}
	switch op {
	case opWaitFor:
		if s.waitFor(a, b) {
			return []byte{1}, nil // registered
		}
		return []byte{0}, nil // deadlock: caller is the victim
	case opCancelWait:
		s.cancelWait(a)
	default: // opCommitted
		s.committed(a)
	}
	return nil, nil
}

// waitFor registers waiter->holder unless it would close a cycle, in which
// case the waiter is the victim and false is returned.
func (s *RLockServer) waitFor(waiter, holder common.GTrxID) bool {
	s.mu.Lock()
	// Walk the holder's own wait chain; reaching the waiter means a cycle.
	cur, steps := holder, 0
	for steps < 1024 {
		next, ok := s.edges[cur]
		if !ok {
			break
		}
		if next == waiter {
			s.mu.Unlock()
			s.Deadlocks.Inc()
			return false
		}
		cur = next
		steps++
	}
	s.edges[waiter] = holder
	s.waiters[holder] = append(s.waiters[holder], waiter)
	s.mu.Unlock()
	s.Waits.Inc()
	return true
}

func (s *RLockServer) cancelWait(waiter common.GTrxID) {
	s.mu.Lock()
	holder, ok := s.edges[waiter]
	if ok {
		delete(s.edges, waiter)
		list := s.waiters[holder]
		for i, w := range list {
			if w == waiter {
				s.waiters[holder] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(s.waiters[holder]) == 0 {
			delete(s.waiters, holder)
		}
	}
	s.mu.Unlock()
}

// committed is the holder's commit/abort notification (Figure 6 step: "T10
// notifies Lock Fusion that it has committed"): wake every waiter.
func (s *RLockServer) committed(holder common.GTrxID) {
	s.mu.Lock()
	list := s.waiters[holder]
	delete(s.waiters, holder)
	for _, w := range list {
		delete(s.edges, w)
	}
	s.mu.Unlock()
	// Wakeups must survive transient faults: a lost wake parks the waiter
	// until its timeout. Re-delivery is idempotent (waking an absent waiter
	// is a no-op).
	for _, w := range list {
		_, _ = s.fabric.Call(w.Node, ServiceWake, marshalTwoG(opWake, w, holder))
	}
}

// dropNode clears wait state involving a crashed node: its transactions
// stop waiting, and transactions waiting on them are woken (they will
// re-examine the row; the crashed node's writes are rolled back by
// recovery).
func (s *RLockServer) dropNode(node uint16) {
	n := common.NodeID(node)
	s.mu.Lock()
	var wake []common.GTrxID
	for waiter, holder := range s.edges {
		if waiter.Node == n || holder.Node == n {
			delete(s.edges, waiter)
			list := s.waiters[holder]
			for i, w := range list {
				if w == waiter {
					s.waiters[holder] = append(list[:i], list[i+1:]...)
					break
				}
			}
			if waiter.Node != n {
				wake = append(wake, waiter)
			}
		}
	}
	for holder := range s.waiters {
		if holder.Node == n && len(s.waiters[holder]) == 0 {
			delete(s.waiters, holder)
		}
	}
	s.mu.Unlock()
	for _, w := range wake {
		_, _ = s.fabric.Call(w.Node, ServiceWake, marshalTwoG(opWake, w, common.GTrxID{}))
	}
}

// WaitEdges returns the current number of wait-for edges (tests).
func (s *RLockServer) WaitEdges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.edges)
}

// --- client ----------------------------------------------------------------

// RLockClient is a node's side of the RLock protocol: it parks blocked
// transactions and wakes them on ServiceWake notifications.
type RLockClient struct {
	node   common.NodeID
	fabric rdma.Conn
	tf     *txfusion.Client
	cfg    Config

	mu     sync.Mutex
	parked map[common.GTrxID]chan struct{}

	// WaitRounds counts blocking waits; Timeouts counts backstop firings.
	WaitRounds metrics.Counter
	Timeouts   metrics.Counter
}

// NewRLockClient registers the node's wake service and returns the client.
func NewRLockClient(ep *rdma.Endpoint, fabric *rdma.Fabric, tf *txfusion.Client, cfg Config) *RLockClient {
	cfg.fill()
	c := &RLockClient{
		node:   ep.Node(),
		fabric: fabric.From(ep.Node()),
		tf:     tf,
		cfg:    cfg,
		parked: make(map[common.GTrxID]chan struct{}),
	}
	ep.Serve(ServiceWake, c.handleWake)
	return c
}

func (c *RLockClient) handleWake(req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	op, waiter, _ := rd.U8(), rd.GTrx(), rd.GTrx()
	if op != opWake {
		return nil, fmt.Errorf("rlock: wake op %d: %w", op, common.ErrNoService)
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("rlock: wake: %w", err)
	}
	c.mu.Lock()
	ch := c.parked[waiter]
	delete(c.parked, waiter)
	c.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	return nil, nil
}

// WaitFor blocks transaction waiter until holder finishes (§4.3.2): it sets
// the ref flag on the holder's TIT slot, registers the wait edge with Lock
// Fusion, double-checks the holder is still active (closing the
// flag-vs-commit race), then parks. It returns nil when the caller should
// re-check the row, ErrDeadlock when the waiter was chosen as victim.
func (c *RLockClient) WaitFor(waiter, holder common.GTrxID) error {
	return c.WaitForDeadline(waiter, holder, common.Deadline{})
}

// WaitForDeadline is WaitFor with the park bounded by the caller's
// deadline: the timer is min(cfg.WaitTimeout, remaining budget), and a
// budget-capped expiry returns ErrDeadlineExceeded (non-retryable) rather
// than ErrLockTimeout, after retracting the wait edge. Deadlock detection
// is unaffected — the cycle check runs at registration, before any wait,
// so a short budget never masks a deadlock verdict (the victim is chosen
// eagerly, not by timeout). A zero deadline is plain WaitFor.
func (c *RLockClient) WaitForDeadline(waiter, holder common.GTrxID, dl common.Deadline) error {
	// Step 1 (Figure 6): flag the holder's transaction metadata so its
	// commit path knows someone is waiting.
	flagged, err := c.tf.SetRefFlag(holder)
	if err != nil {
		// Holder's node unreachable (crashed): back off briefly; the
		// row will be resolved by recovery.
		time.Sleep(time.Millisecond)
		return nil
	}
	if !flagged {
		return nil // holder already finished; re-check the row
	}

	ch := make(chan struct{})
	c.mu.Lock()
	c.parked[waiter] = ch
	c.mu.Unlock()
	cleanup := func() {
		c.mu.Lock()
		delete(c.parked, waiter)
		c.mu.Unlock()
	}

	// Step 2: register the wait-for edge. Dropped requests never reached
	// the server, so retrying cannot double-register.
	resp, err := c.fabric.WithDeadline(dl).Call(common.PMFSNode, ServiceRLock, marshalTwoG(opWaitFor, waiter, holder))
	if err != nil {
		cleanup()
		return err
	}
	if len(resp) < 1 || resp[0] == 0 {
		cleanup()
		return fmt.Errorf("rlock: %v waiting for %v: %w", waiter, holder, common.ErrDeadlock)
	}

	// Step 3: the holder may have committed between the flag and the
	// registration; its notification would have found no edge. Re-check.
	active, err := c.tf.IsActive(holder)
	if err == nil && !active {
		c.cancelWait(waiter, holder)
		cleanup()
		return nil
	}

	c.WaitRounds.Inc()
	wait := c.cfg.WaitTimeout
	deadlineBound := false
	if rem, bounded := dl.Remaining(); bounded && rem < wait {
		if rem < 0 {
			rem = 0
		}
		wait = rem
		deadlineBound = true
	}
	select {
	case <-ch:
		return nil
	case <-time.After(wait):
		c.Timeouts.Inc()
		c.cancelWait(waiter, holder)
		cleanup()
		if deadlineBound {
			return fmt.Errorf("rlock: %v waiting for %v: wait budget spent: %w",
				waiter, holder, common.ErrDeadlineExceeded)
		}
		return fmt.Errorf("rlock: %v waiting for %v: %w", waiter, holder, common.ErrLockTimeout)
	}
}

// cancelWait retracts a wait edge; losing it would leak the edge until the
// holder commits, so transient faults are retried (cancel is idempotent).
func (c *RLockClient) cancelWait(waiter, holder common.GTrxID) {
	_, _ = c.fabric.Call(common.PMFSNode, ServiceRLock, marshalTwoG(opCancelWait, waiter, holder))
}

// NotifyCommitted tells Lock Fusion that holder finished; called by the
// engine when commit/abort observes the TIT ref flag set. A lost
// notification parks every waiter until timeout, so it is retried.
func (c *RLockClient) NotifyCommitted(holder common.GTrxID) {
	_, _ = c.fabric.Call(common.PMFSNode, ServiceRLock, marshalTwoG(opCommitted, holder, common.GTrxID{}))
}
