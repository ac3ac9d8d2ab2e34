package rdma

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polardbmp/internal/common"
)

// Connection-level fault injection for the socket transport. Where the
// fabric's verb injector (Fabric.SetInjection) models media faults on
// individual operations, LinkFaults models the network between processes:
// partitions that refuse connections, black holes that swallow frames on a
// live TCP connection (the classic half-open failure a crashed switch
// leaves behind). Rules are installed at runtime — mpserver exposes them over POST /netfault — so
// a chaos harness can cut, degrade, and heal specific peer pairs while the
// cluster is under load.
//
// Rules match peers by substring against the link's advertised identity
// (the dialer sees "addr/serverName", the acceptor sees the dialer's
// configured name) and, for dial refusal, the dial address. An empty
// pattern matches every peer. Every rule expires on its own; healing early
// is ClearLinkFaults.

// Link-fault modes.
const (
	// FaultPartition refuses new dials to matching peers and kills matching
	// live links. Verbs fail fast with ErrUnreachable until healed.
	FaultPartition = "partition"
	// FaultBlackhole silently discards frames on matching live links, in
	// both directions, without closing the connection — a half-open link.
	// Keepalive idle detection is what eventually tears it down.
	FaultBlackhole = "blackhole"
)

type linkFaultRule struct {
	peer  string // substring pattern; "" matches all
	mode  string
	until time.Time
}

func (r *linkFaultRule) expired(now time.Time) bool { return now.After(r.until) }

func (r *linkFaultRule) matches(detail string) bool {
	return r.peer == "" || strings.Contains(detail, r.peer)
}

// LinkFaults is the per-fabric registry of connection-level fault rules,
// plus the set of live socket links they apply to. The zero value is ready;
// the hot-path checks are one atomic load while no rule is installed.
type LinkFaults struct {
	// active counts installed (possibly expired) rules so a link's admit
	// hook pays one atomic load per frame when chaos is off.
	active atomic.Int64

	mu    sync.Mutex
	rules []linkFaultRule
	links map[*peerLink]struct{}
}

// LinkFaultState is one active rule, as reported by Snapshot.
type LinkFaultState struct {
	Peer      string  `json:"peer"`
	Mode      string  `json:"mode"`
	RemainSec float64 `json:"remain_sec"`
}

// register tracks a live link so partition rules can kill it.
// Immediately applies any standing partition to it.
func (lf *LinkFaults) register(l *peerLink) {
	if lf == nil {
		return
	}
	lf.mu.Lock()
	if lf.links == nil {
		lf.links = make(map[*peerLink]struct{})
	}
	lf.links[l] = struct{}{}
	kill := lf.active.Load() > 0 && lf.matchLocked(l.name, FaultPartition, time.Now())
	lf.mu.Unlock()
	if kill {
		go l.Fail(errPeerUnreachable(l.name + " (injected partition)"))
	}
}

func (lf *LinkFaults) deregister(l *peerLink) {
	if lf == nil {
		return
	}
	lf.mu.Lock()
	delete(lf.links, l)
	lf.mu.Unlock()
}

// Set installs (or refreshes) one rule for d. Partition rules kill matching
// live links immediately.
func (lf *LinkFaults) Set(peer, mode string, d time.Duration) error {
	switch mode {
	case FaultPartition, FaultBlackhole:
	default:
		return fmt.Errorf("rdma: link-fault mode %q (want partition|blackhole): %w", mode, common.ErrCorrupt)
	}
	if d <= 0 {
		return fmt.Errorf("rdma: link-fault duration %v: %w", d, common.ErrCorrupt)
	}
	now := time.Now()
	lf.mu.Lock()
	lf.pruneLocked(now)
	replaced := false
	for i := range lf.rules {
		if lf.rules[i].peer == peer && lf.rules[i].mode == mode {
			lf.rules[i].until = now.Add(d)
			replaced = true
			break
		}
	}
	if !replaced {
		lf.rules = append(lf.rules, linkFaultRule{peer: peer, mode: mode, until: now.Add(d)})
	}
	lf.active.Store(int64(len(lf.rules)))
	victims := lf.victimsLocked(peer, mode)
	lf.mu.Unlock()
	for _, l := range victims {
		l.Fail(errPeerUnreachable(l.name + " (injected " + mode + ")"))
	}
	return nil
}

// Clear removes every rule matching peer ("" clears all) and returns how
// many it removed.
func (lf *LinkFaults) Clear(peer string) int {
	lf.mu.Lock()
	kept := lf.rules[:0]
	removed := 0
	for _, r := range lf.rules {
		if peer == "" || r.peer == peer {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	lf.rules = kept
	lf.active.Store(int64(len(lf.rules)))
	lf.mu.Unlock()
	return removed
}

// Snapshot reports the active rules (for /netfault GET and stats).
func (lf *LinkFaults) Snapshot() []LinkFaultState {
	now := time.Now()
	lf.mu.Lock()
	defer lf.mu.Unlock()
	lf.pruneLocked(now)
	out := make([]LinkFaultState, 0, len(lf.rules))
	for _, r := range lf.rules {
		out = append(out, LinkFaultState{
			Peer: r.peer, Mode: r.mode, RemainSec: r.until.Sub(now).Seconds(),
		})
	}
	return out
}

// denyDial reports whether a dial to detail is partitioned away.
func (lf *LinkFaults) denyDial(detail string) bool {
	if lf == nil || lf.active.Load() == 0 {
		return false
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return lf.matchLocked(detail, FaultPartition, time.Now())
}

// drop reports whether a frame to/from the link named detail should be
// silently discarded (black hole).
func (lf *LinkFaults) drop(detail string) bool {
	if lf == nil || lf.active.Load() == 0 {
		return false
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return lf.matchLocked(detail, FaultBlackhole, time.Now())
}

func (lf *LinkFaults) matchLocked(detail, mode string, now time.Time) bool {
	for i := range lf.rules {
		r := &lf.rules[i]
		if r.mode == mode && !r.expired(now) && r.matches(detail) {
			return true
		}
	}
	return false
}

// victimsLocked collects live links a freshly installed partition rule
// should kill now (blackhole keeps links alive — that is its point).
func (lf *LinkFaults) victimsLocked(peer, mode string) []*peerLink {
	if mode == FaultBlackhole {
		return nil
	}
	var out []*peerLink
	for l := range lf.links {
		r := linkFaultRule{peer: peer, mode: mode}
		if r.matches(l.name) {
			out = append(out, l)
		}
	}
	return out
}

func (lf *LinkFaults) pruneLocked(now time.Time) {
	kept := lf.rules[:0]
	for _, r := range lf.rules {
		if !r.expired(now) {
			kept = append(kept, r)
		}
	}
	lf.rules = kept
	lf.active.Store(int64(len(lf.rules)))
}

// Faults returns the fabric's connection-fault registry.
func (f *Fabric) Faults() *LinkFaults { return &f.faults }

// SetLinkFault installs a connection-level fault rule on this fabric's
// socket links: mode is partition|blackhole (see the Fault* constants)
// or "heal" to clear rules matching peer. This is the programmatic surface
// behind mpserver's POST /netfault.
func (f *Fabric) SetLinkFault(peer, mode string, d time.Duration) error {
	if mode == "heal" || mode == "clear" {
		f.faults.Clear(peer)
		return nil
	}
	return f.faults.Set(peer, mode, d)
}
