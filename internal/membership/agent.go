package membership

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
	"polardbmp/internal/rdma"
	"polardbmp/internal/wire"
)

// Config tunes an Agent's lease cadence.
type Config struct {
	// RenewInterval is the heartbeat period. Default 15ms.
	RenewInterval time.Duration
	// LeaseTimeout is how long a peer's heartbeat may stand still before
	// the peer becomes a suspect. Must comfortably exceed RenewInterval
	// plus fabric jitter. Default 90ms.
	LeaseTimeout time.Duration
}

func (c *Config) fill() {
	if c.RenewInterval <= 0 {
		c.RenewInterval = 15 * time.Millisecond
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 90 * time.Millisecond
	}
}

// Agent is a node's membership actor: it joins the cluster, renews the
// node's lease, watches peers, and (when it wins an eviction) drives the
// takeover callback. Renewals and detection run on separate goroutines so
// a long takeover cannot starve the survivor's own lease.
type Agent struct {
	node common.NodeID
	pmfs common.NodeID
	// conn carries the membership RPCs (join, drain, evict): idempotent
	// table transitions, retried by the Conn. lease carries the heartbeat
	// write and the slot and table reads single-shot: the renew and detect
	// loops' next tick is their retry.
	conn  rdma.Conn
	lease rdma.Conn
	cfg   Config
	stamp *common.EpochStamp

	// Renewals counts successful lease renewals.
	Renewals metrics.Counter
	// Suspicions counts eviction attempts this agent made.
	Suspicions metrics.Counter

	epoch   atomic.Uint64
	hb      atomic.Uint64
	evicted atomic.Bool
	lastOK  atomic.Int64 // wall nanos of the last confirmed-valid lease

	onTakeover func(dead common.NodeID, epoch common.Epoch)

	mu      sync.Mutex
	started bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// NewAgent creates the agent for node, heartbeating against the membership
// table on pmfs. stamp (may be nil) receives the incarnation epoch on Join
// so the node's fusion clients stamp their requests with it.
func NewAgent(node, pmfs common.NodeID, fabric *rdma.Fabric, stamp *common.EpochStamp, cfg Config) *Agent {
	cfg.fill()
	// Membership requests are never epoch-stamped: the table itself decides
	// incarnations.
	conn := fabric.From(node).WithStamp(nil)
	return &Agent{
		node:  node,
		pmfs:  pmfs,
		conn:  conn,
		lease: conn.WithRetry(common.NoRetryPolicy()),
		cfg:   cfg,
		stamp: stamp,
	}
}

// SetOnTakeover installs the callback run (on the detector goroutine) when
// this agent wins a peer's eviction.
func (a *Agent) SetOnTakeover(fn func(dead common.NodeID, epoch common.Epoch)) { a.onTakeover = fn }

// Join admits the node under a fresh incarnation epoch. It retries
// transient faults but surfaces ErrFenced (takeover of the previous
// incarnation still running) to the caller, who should back off and retry.
func (a *Agent) Join() error {
	resp, err := a.conn.Call(a.pmfs, Service, wire.AppendU16([]byte{opJoin}, uint16(a.node)))
	if err != nil {
		return fmt.Errorf("membership: node %d join: %w", a.node, err)
	}
	rd := wire.NewReader(resp)
	epoch, hb := rd.U64(), rd.U64()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("membership: node %d join: %w", a.node, err)
	}
	a.epoch.Store(epoch)
	a.hb.Store(hb)
	a.evicted.Store(false)
	a.lastOK.Store(time.Now().UnixNano())
	if a.stamp != nil {
		a.stamp.Store(common.Epoch(epoch))
	}
	return nil
}

// Epoch returns the incarnation epoch learned at Join.
func (a *Agent) Epoch() common.Epoch { return common.Epoch(a.epoch.Load()) }

// Evicted reports whether this agent has observed its own eviction.
func (a *Agent) Evicted() bool { return a.evicted.Load() }

// Start launches the renewal and detection loops. Idempotent.
func (a *Agent) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.started {
		return
	}
	a.started = true
	a.stop = make(chan struct{})
	a.wg.Add(2)
	go a.renewLoop()
	go a.detectLoop()
}

// Stop halts both loops and waits for them. Idempotent; safe if Start was
// never called.
func (a *Agent) Stop() {
	a.mu.Lock()
	if !a.started {
		a.mu.Unlock()
		return
	}
	a.started = false
	close(a.stop)
	a.mu.Unlock()
	a.wg.Wait()
}

// CheckValid is the lease self-check a node runs before publishing a
// commit: it returns ErrStaleEpoch once the node has been evicted, so a
// slow-but-alive zombie aborts instead of publishing under a lease it no
// longer holds. A recently confirmed lease passes without fabric traffic;
// otherwise the agent verifies its slot synchronously.
func (a *Agent) CheckValid() error {
	if a.evicted.Load() {
		return fmt.Errorf("membership: node %d evicted: %w", a.node, common.ErrStaleEpoch)
	}
	if time.Since(time.Unix(0, a.lastOK.Load())) < a.cfg.LeaseTimeout/2 {
		return nil
	}
	ok, err := a.verifySlot()
	if err != nil {
		return fmt.Errorf("membership: node %d lease check: %w", a.node, err)
	}
	if !ok {
		return fmt.Errorf("membership: node %d evicted: %w", a.node, common.ErrStaleEpoch)
	}
	return nil
}

// verifySlot reads the node's own slot and reports whether it still names
// this incarnation as live or draining. A draining incarnation still holds
// its lease — in-flight transactions must keep committing while the drain
// runs — so only a fence (eviction or drain completion) latches the evicted
// flag.
func (a *Agent) verifySlot() (bool, error) {
	var slot [slotSize]byte
	if err := a.lease.Read(a.pmfs, Region, SlotOff(a.node), slot[:]); err != nil {
		return false, err
	}
	inc := binary.LittleEndian.Uint64(slot[offEpoch:])
	state := binary.LittleEndian.Uint64(slot[offState:])
	if (state != StateLive && state != StateDraining) || inc != a.epoch.Load() {
		a.evicted.Store(true)
		return false, nil
	}
	a.lastOK.Store(time.Now().UnixNano())
	return true, nil
}

// StartDrain moves this node's slot to Draining through the membership
// service (serialized with joins and evictions; bumps the cluster epoch).
// Peers observe the transition on their next detector scan and stop
// tracking the node for eviction; the lease itself stays valid.
func (a *Agent) StartDrain() error {
	return a.drainOp(opDrain)
}

// FinishDrain fences this incarnation cleanly: slot to Drained, reusable by
// a future Alloc. Call only after the node's last transaction finished and
// its state is flushed; the Gate refuses the incarnation from here on.
func (a *Agent) FinishDrain() error {
	return a.drainOp(opDrained)
}

func (a *Agent) drainOp(op byte) error {
	if _, err := a.conn.Call(a.pmfs, Service, wire.AppendU16([]byte{op}, uint16(a.node))); err != nil {
		return fmt.Errorf("membership: node %d drain op %d: %w", a.node, op, err)
	}
	return nil
}

// renewLoop keeps the lease alive: verify the slot still names this
// incarnation, then bump the heartbeat word with a one-sided write. The
// loop exits once the agent observes its own eviction.
func (a *Agent) renewLoop() {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.RenewInterval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
		}
		ok, err := a.verifySlot()
		if err != nil {
			continue // transient fabric trouble; the next tick retries
		}
		if !ok {
			return // fenced out; stop renewing, CheckValid now fails fast
		}
		hb := a.hb.Add(1)
		if err := a.lease.Write64(a.pmfs, Region, HBOff(a.node), hb); err != nil {
			a.hb.Add(^uint64(0)) // undo; re-derive from the slot next tick
			continue
		}
		a.Renewals.Inc()
		a.lastOK.Store(time.Now().UnixNano())
	}
}

// detectLoop watches every peer's heartbeat. A heartbeat that stands still
// past the lease timeout triggers an eviction attempt; winning it runs the
// takeover callback inline (renewals continue on their own goroutine).
func (a *Agent) detectLoop() {
	defer a.wg.Done()
	type track struct {
		hb   uint64
		seen time.Time
	}
	peers := make(map[common.NodeID]track)
	fenced := make(map[common.NodeID]time.Time)
	t := time.NewTicker(a.cfg.RenewInterval)
	defer t.Stop()
	buf := make([]byte, RegionSize)
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
		}
		if err := a.lease.Read(a.pmfs, Region, 0, buf); err != nil {
			continue
		}
		epoch := common.Epoch(binary.LittleEndian.Uint64(buf[0:8]))
		now := time.Now()
		for n := common.NodeID(1); n <= MaxNodes; n++ {
			off := SlotOff(n)
			state := binary.LittleEndian.Uint64(buf[off+offState:])
			if n == a.node || state != StateLive {
				delete(peers, n)
				// A slot stuck Fenced means the eviction winner never ran
				// the recovery: it was an agent with no takeover pipeline
				// (a satellite process detecting a peer it cannot repair),
				// or a survivor that died mid-takeover. Any detector with
				// a callback finishes the job — the core pipeline is
				// idempotent under its takeover lock, and a per-node
				// cooldown keeps a persistently failing recovery from
				// being retried every tick. Never this agent's own slot:
				// an evicted node cannot repair itself, and the pipeline's
				// STONITH of the dead node would stop this agent from
				// inside its own detector goroutine — a wait on itself.
				if state == StateFenced && n != a.node && a.onTakeover != nil &&
					now.Sub(fenced[n]) > a.cfg.LeaseTimeout {
					fenced[n] = now
					a.onTakeover(n, epoch)
				} else if state != StateFenced {
					delete(fenced, n)
				}
				continue
			}
			hb := binary.LittleEndian.Uint64(buf[off+offHB:])
			tr, known := peers[n]
			if !known || hb != tr.hb {
				peers[n] = track{hb: hb, seen: now}
				continue
			}
			if now.Sub(tr.seen) <= a.cfg.LeaseTimeout {
				continue
			}
			a.Suspicions.Inc()
			won, newEpoch := a.evict(n, hb, epoch)
			peers[n] = track{hb: hb, seen: now} // either way, re-arm
			if won && a.onTakeover != nil {
				a.onTakeover(n, newEpoch)
			}
		}
	}
}

// evict asks the table to fence suspect; returns whether this agent won.
func (a *Agent) evict(suspect common.NodeID, observedHB uint64, from common.Epoch) (bool, common.Epoch) {
	req := wire.AppendU16(wire.AppendU16([]byte{opEvict}, uint16(a.node)), uint16(suspect))
	req = wire.AppendU64(wire.AppendU64(req, observedHB), uint64(from))
	resp, err := a.conn.Call(a.pmfs, Service, req)
	if err != nil {
		return false, 0
	}
	rd := wire.NewReader(resp)
	won, epoch := rd.U8() == 1, common.Epoch(rd.U64())
	if rd.Done() != nil {
		return false, 0
	}
	return won, epoch
}
