// Package gateway load-balances wire session-protocol clients across the
// primaries of a multi-process PolarDB-MP cluster. Each accepted session is
// pinned to one backend mpserver — a transaction runs entirely on one
// primary, so the gateway needs almost no transaction state — picked by
// health, load, and topology: backends that fail their ping probe are
// skipped, backends whose node is draining are deprioritized (and drained
// ones excluded), and ties break to the fewest live sessions.
//
// Frames are relayed (and validated) individually in both directions, so the
// gateway's stats report real frame/byte/pipeline counters. The relay keeps
// one ledger per session — the requests in flight and the transaction
// handles open — which is just enough to migrate a pinned session to another
// backend at a transaction boundary when its backend starts draining, and to
// answer for a backend that died mid-session.
package gateway

import (
	"encoding/json"
	"net"
	"sync"
	"time"

	"polardbmp"
	"polardbmp/internal/core"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/wire"
)

// Failure-EWMA tuning: every observed failure (probe or session dial) mixes
// in at failEWMAGain; every successful probe decays the average — including
// on a backend carrying zero sessions, so a recovered backend earns its way
// back from probes alone instead of staying shunned forever. At one probe
// per second a fully-failed backend (EWMA 1.0) drops under the shun
// threshold in ~4 clean probes.
const (
	failEWMADecay = 0.7
	failEWMAGain  = 0.3
	failEWMAShun  = 0.5
)

// backend is one mpserver the gateway can route sessions to.
type backend struct {
	addr string

	mu       sync.Mutex
	healthy  bool
	failEWMA float64 // recent failure rate, decayed by idle probes
	active   int     // live proxied sessions
	sessions uint64
	lastErr  string
	// node is the backend's node id (from OpJoinInfo; 0 until learned) and
	// state its topology state (empty until the first topology probe).
	node  int
	state core.NodeState
}

// routableLocked reports whether new sessions may be pinned to the backend:
// a drained node is gone for good and never receives another session.
// Caller holds b.mu.
func (b *backend) routableLocked() bool { return b.state != core.NodeDrained }

// drainingLocked reports a backend whose node is leaving: existing sessions
// should migrate off it and new ones prefer anywhere else.
// Caller holds b.mu.
func (b *backend) drainingLocked() bool {
	return b.state == core.NodeDraining || b.state == core.NodeDrained
}

// draining is drainingLocked under b.mu.
func (b *backend) draining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drainingLocked()
}

// failLocked records one observed failure (probe or session dial).
// Caller holds b.mu.
func (b *backend) failLocked(err error) {
	b.healthy = false
	b.lastErr = err.Error()
	b.failEWMA = b.failEWMA*failEWMADecay + failEWMAGain
}

// Gateway relays client sessions to a fixed set of backends.
type Gateway struct {
	backends []*backend
	nc       *wire.NetCounters
	stop     chan struct{}
	wg       sync.WaitGroup // probers and sessions

	mu      sync.Mutex
	clients map[net.Conn]struct{} // live sessions' client conns, closed by Close
	closed  bool
}

// New returns a gateway over the mpserver session addresses addrs, each
// probed for health every probe interval from now until Close.
func New(addrs []string, probe time.Duration) *Gateway {
	gw := &Gateway{nc: &wire.NetCounters{}, stop: make(chan struct{}), clients: make(map[net.Conn]struct{})}
	for _, a := range addrs {
		gw.backends = append(gw.backends, &backend{addr: a})
	}
	for _, b := range gw.backends {
		gw.wg.Add(1)
		go gw.probeLoop(b, probe)
	}
	return gw
}

// Serve accepts client sessions on lis, each served on its own goroutine,
// until lis is closed.
func (gw *Gateway) Serve(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		gw.mu.Lock()
		if gw.closed {
			gw.mu.Unlock()
			_ = conn.Close()
			continue
		}
		gw.clients[conn] = struct{}{}
		gw.wg.Add(1)
		gw.mu.Unlock()
		go gw.serve(conn)
	}
}

// untrack closes a session's client conn and forgets it.
func (gw *Gateway) untrack(conn net.Conn) {
	_ = conn.Close()
	gw.mu.Lock()
	delete(gw.clients, conn)
	gw.mu.Unlock()
}

// Close stops the probers, ends every live session by closing its client
// conn, and waits for all of them. Close the listeners first, so that no
// new session starts.
func (gw *Gateway) Close() {
	close(gw.stop)
	gw.mu.Lock()
	gw.closed = true
	for conn := range gw.clients {
		_ = conn.Close()
	}
	gw.mu.Unlock()
	gw.wg.Wait()
}

// probeLoop keeps one backend's health fresh: a ping each tick, and every
// few ticks its topology state (which node it fronts, whether it drains).
func (gw *Gateway) probeLoop(b *backend, interval time.Duration) {
	defer gw.wg.Done()
	var cl *wire.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	tick := 0
	for {
		var err error
		if cl == nil {
			cl, err = wire.DialSession(b.addr, wire.SessionConfig{Name: "mpgateway-probe", DialTimeout: interval})
		}
		if err == nil {
			err = cl.Ping()
		}
		var state core.NodeState
		if err == nil && tick%5 == 0 {
			// Topology probe (admin ops): which node does this backend
			// front, and is it draining? A backend that names no node never
			// gets a topology state.
			b.mu.Lock()
			node := b.node
			b.mu.Unlock()
			if node == 0 {
				if raw, jerr := cl.JoinInfoJSON(); jerr == nil {
					var ji netsrv.JoinInfo
					if json.Unmarshal(raw, &ji) == nil {
						node = ji.Node
					}
				}
			}
			if node != 0 {
				if raw, terr := cl.TopologyJSON(); terr == nil {
					var top core.Topology
					if json.Unmarshal(raw, &top) == nil {
						state = core.NodeDrained // a node absent from the topology is gone
						for _, n := range top.Nodes {
							if n.ID == node {
								state = n.State
							}
						}
					}
				}
			}
			b.mu.Lock()
			b.node = node
			if state != "" {
				b.state = state
			}
			b.mu.Unlock()
		}
		b.mu.Lock()
		if err != nil {
			b.failLocked(err)
		} else {
			b.healthy = true
			b.lastErr = ""
			// Idle-probe decay: a clean probe pays down the failure average
			// even when the backend carries no sessions.
			b.failEWMA *= failEWMADecay
		}
		b.mu.Unlock()
		if err != nil && cl != nil {
			cl.Close()
			cl = nil
		}
		tick++
		select {
		case <-gw.stop:
			return
		case <-time.After(interval):
		}
	}
}

// pick returns the best backend other than exclude: healthy first, then
// healthy-but-flaky (recent failures), then draining, unhealthy last, fewest
// live sessions within a tier. Drained backends are excluded outright — that
// node left the topology for good and never receives another session.
func (gw *Gateway) pick(exclude *backend) *backend {
	var best *backend
	bestScore := 1 << 30
	for _, b := range gw.backends {
		if b == exclude {
			continue
		}
		b.mu.Lock()
		routable := b.routableLocked()
		score := b.active
		switch {
		case !b.healthy:
			score += 1 << 20
		case b.drainingLocked():
			score += 1 << 19
		case b.failEWMA >= failEWMAShun:
			score += 1 << 15
		}
		b.mu.Unlock()
		if !routable {
			continue
		}
		if score < bestScore {
			best, bestScore = b, score
		}
	}
	return best
}

// Stats is the gateway's stats document: its own net counters plus each
// backend's health as the prober sees it.
type Stats struct {
	Version  string         `json:"version"`
	Backends []BackendStats `json:"backends"`
	Net      core.NetStats  `json:"net"`
}

// BackendStats is one backend's row of Stats.
type BackendStats struct {
	Addr     string         `json:"addr"`
	Healthy  bool           `json:"healthy"`
	Node     int            `json:"node,omitempty"`
	State    core.NodeState `json:"state,omitempty"`
	FailEWMA float64        `json:"fail_ewma,omitempty"`
	Active   int            `json:"active_sessions"`
	Sessions uint64         `json:"total_sessions"`
	LastErr  string         `json:"last_err,omitempty"`
}

// Stats snapshots the gateway's counters and backend health.
func (gw *Gateway) Stats() Stats {
	doc := Stats{Version: polardbmp.Version, Net: gw.nc.Snapshot()}
	for _, b := range gw.backends {
		b.mu.Lock()
		doc.Backends = append(doc.Backends, BackendStats{
			Addr: b.addr, Healthy: b.healthy, Node: b.node, State: b.state,
			FailEWMA: b.failEWMA, Active: b.active, Sessions: b.sessions, LastErr: b.lastErr,
		})
		b.mu.Unlock()
	}
	return doc
}
