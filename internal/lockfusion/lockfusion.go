// Package lockfusion implements Lock Fusion (§4.3): the PLock protocol for
// physical page consistency across nodes and the RLock protocol for
// transactional row locking.
//
// PLock is a node-granularity S/X page lock served by PMFS with FIFO grants,
// negotiation messages to lazy holders, and client-side lazy release: a node
// retains a PLock after its local reference count drops to zero and re-grants
// it locally until PMFS asks for it back (§4.3.1).
//
// RLock embeds the lock in the row itself (the newest version's g_trx_id);
// Lock Fusion keeps only the wait-for relation. A blocked transaction flags
// the holder's TIT slot (`ref`), registers a wait edge, and sleeps; the
// holder's commit/abort notifies Lock Fusion, which wakes the waiters
// (§4.3.2, Figure 6). Cycle detection over the wait-for table surfaces
// deadlock errors.
package lockfusion

import (
	"time"

	"polardbmp/internal/common"

	"polardbmp/internal/rdma"
)

// Fabric service names.
const (
	ServicePLock  = "lockfusion.plock"  // on PMFS
	ServiceRLock  = "lockfusion.rlock"  // on PMFS
	ServiceWake   = "lockfusion.wake"   // on each node: RLock wakeups
	ServiceRevoke = "lockfusion.revoke" // on each node: PLock negotiation
)

// Mode is a PLock mode.
type Mode uint8

const (
	// ModeS is a shared page lock (read).
	ModeS Mode = 1
	// ModeX is an exclusive page lock (write).
	ModeX Mode = 2
)

func (m Mode) String() string {
	switch m {
	case ModeS:
		return "S"
	case ModeX:
		return "X"
	}
	return "?"
}

// valid reports whether m is one of the two modes.
func (m Mode) valid() bool { return m == ModeS || m == ModeX }

// Covers reports whether holding m satisfies a request for want.
func (m Mode) Covers(want Mode) bool { return m >= want }

// compatible reports whether two modes can be held by different nodes at
// the same time.
func compatible(a, b Mode) bool { return a == ModeS && b == ModeS }

// Config tunes Lock Fusion clients.
type Config struct {
	// WaitTimeout bounds PLock and RLock waits (backstop behind deadlock
	// detection). Default 2s.
	WaitTimeout time.Duration
	// DisableLazyRelease turns off client-side PLock retention (§4.3.1),
	// so every unref returns the lock to PMFS. Used by the ablation bench.
	DisableLazyRelease bool
}

func (c *Config) fill() {
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 2 * time.Second
	}
}

// DefaultConfig returns production defaults (lazy release on).
func DefaultConfig() Config { return Config{WaitTimeout: 2 * time.Second} }

// Server bundles the PMFS-side PLock and RLock services.
type Server struct {
	PLock *PLockServer
	RLock *RLockServer
}

// NewServer attaches Lock Fusion to the PMFS endpoint.
func NewServer(ep *rdma.Endpoint, fabric *rdma.Fabric) *Server {
	return &Server{
		PLock: newPLockServer(ep, fabric),
		RLock: newRLockServer(ep, fabric),
	}
}

// SetEpochGate installs the membership epoch gate on both lock services.
func (s *Server) SetEpochGate(g common.EpochGate) {
	s.PLock.SetEpochGate(g)
	s.RLock.SetEpochGate(g)
}

// DropNode releases every PLock held or awaited by node and clears its
// RLock wait edges, waking foreign waiters blocked on its transactions.
func (s *Server) DropNode(node uint16) {
	s.PLock.dropNode(node)
	s.RLock.dropNode(node)
}

// DropNodeRLock clears only the RLock wait state of a crashed node. The
// node's PLocks are intentionally retained as a fence: pages whose latest
// version may exist only in the crashed node's log stay inaccessible to
// peers until that node's recovery replays them (§4.4 recovery policy).
func (s *Server) DropNodeRLock(node uint16) { s.RLock.dropNode(node) }

// DropNodePLock releases a node's remaining PLocks; called at the end of
// node recovery to lift the fence. Each page it still held in X becomes
// version-unknown, so every cached copy of it is refetched.
func (s *Server) DropNodePLock(node uint16) { s.PLock.dropNode(node) }
