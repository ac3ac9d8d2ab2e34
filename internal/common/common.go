// Package common holds identifiers, constants and binary helpers shared by
// every polardbmp subsystem. It sits at the bottom of the import graph and
// must not import any other internal package.
package common

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// NodeID identifies a primary node in the cluster. PMFS itself uses the
// reserved id PMFSNode.
type NodeID uint16

// PMFSNode is the fabric address of the Polar Multi-Primary Fusion Server.
const PMFSNode NodeID = 0xFFFF

// PageID identifies a page in the shared storage / buffer pools. Pages are
// allocated from a cluster-wide counter kept on shared storage so that ids
// never collide across nodes.
type PageID uint64

// InvalidPageID marks "no page" (e.g. an absent child or overflow pointer).
const InvalidPageID PageID = 0

// SpaceID identifies a tablespace (one B-tree index: a table's primary index
// or one of its secondary indexes).
type SpaceID uint32

// TrxID is a node-local transaction id. It is unique and monotonically
// increasing within one node's lifetime (it restarts from a persisted high
// watermark after recovery).
type TrxID uint64

// CSN is a commit sequence number (the paper's CTS — commit timestamp)
// drawn from the global Timestamp Oracle.
type CSN uint64

const (
	// CSNInit is the initial CTS of a transaction / row version: the
	// transaction has not committed (or the row's CTS was never stamped).
	CSNInit CSN = 0
	// CSNMin indicates "visible to every snapshot" (the owning TIT slot
	// was recycled, which only happens once the transaction's changes are
	// visible to all active views).
	CSNMin CSN = 1
	// CSNMax indicates "visible to no snapshot except the owner" (the
	// owning transaction is still active).
	CSNMax CSN = ^CSN(0)
)

// LLSN is the logical log sequence number of §4.4: a node-local counter that
// establishes a partial order across nodes such that all redo records for
// one page are ordered by LLSN in generation order.
type LLSN uint64

// LSN is a node-local physical log sequence number; it doubles as the byte
// offset of a record within that node's redo log file.
type LSN uint64

// GTrxID is the global transaction id of §4.1: {node_id, trx_id, slot_id,
// version}. With it, any node can locate the owning TIT slot (local or via a
// one-sided RDMA read) and decide the transaction's state.
type GTrxID struct {
	Node    NodeID
	Trx     TrxID
	Slot    uint32
	Version uint32
}

// GTrxIDSize is the marshaled size of a GTrxID.
const GTrxIDSize = 2 + 8 + 4 + 4

// Zero reports whether g is the zero id (no transaction).
func (g GTrxID) Zero() bool { return g == GTrxID{} }

func (g GTrxID) String() string {
	return fmt.Sprintf("g{n%d t%d s%d v%d}", g.Node, g.Trx, g.Slot, g.Version)
}

// Marshal appends the binary form of g to b.
func (g GTrxID) Marshal(b []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(g.Node))
	b = binary.LittleEndian.AppendUint64(b, uint64(g.Trx))
	b = binary.LittleEndian.AppendUint32(b, g.Slot)
	b = binary.LittleEndian.AppendUint32(b, g.Version)
	return b
}

// UnmarshalGTrxID decodes a GTrxID from the front of b and returns the rest.
func UnmarshalGTrxID(b []byte) (GTrxID, []byte, error) {
	if len(b) < GTrxIDSize {
		return GTrxID{}, b, ErrShortBuffer
	}
	g := GTrxID{
		Node:    NodeID(binary.LittleEndian.Uint16(b)),
		Trx:     TrxID(binary.LittleEndian.Uint64(b[2:])),
		Slot:    binary.LittleEndian.Uint32(b[10:]),
		Version: binary.LittleEndian.Uint32(b[14:]),
	}
	return g, b[GTrxIDSize:], nil
}

// Shared error values. Subsystems wrap these with context; callers test with
// errors.Is.
var (
	ErrShortBuffer   = errors.New("polardbmp: short buffer")
	ErrCorrupt       = errors.New("polardbmp: corrupt data")
	ErrNodeDown      = errors.New("polardbmp: node is down")
	ErrNotFound      = errors.New("polardbmp: not found")
	ErrKeyExists     = errors.New("polardbmp: key already exists")
	ErrDeadlock      = errors.New("polardbmp: deadlock detected")
	ErrFenced        = errors.New("polardbmp: page fenced by crashed node")
	ErrLockTimeout   = errors.New("polardbmp: lock wait timeout")
	ErrWriteConflict = errors.New("polardbmp: write conflict") // OCC baseline abort
	ErrTxDone        = errors.New("polardbmp: transaction already finished")
	ErrClosed        = errors.New("polardbmp: closed")
	ErrReadOnly      = errors.New("polardbmp: read-only transaction")

	// ErrDeadlineExceeded means a transaction exhausted its Deadline budget.
	// It is deliberately NOT retryable and NOT transient: the budget is
	// end-to-end, so once it is spent, neither the communication layer nor
	// the application should try again — the transaction aborts, releases
	// its locks, and the caller decides with a fresh budget.
	ErrDeadlineExceeded = errors.New("polardbmp: transaction deadline exceeded")

	// ErrOverloaded means a node's local buffer pool could not make room for
	// a page: every frame was pinned by in-flight statements, or eviction
	// kept losing its victims to concurrent installers. It is transient (the
	// communication layer retries it with jittered backoff, by which time
	// statements have usually unpinned frames) and retryable (a transaction
	// that still fails after backoff may be retried whole by the
	// application).
	ErrOverloaded = errors.New("polardbmp: buffer pool overloaded")

	// Fabric/storage addressing errors (typed so retry logic can classify
	// them with errors.Is instead of string matching).
	ErrNoRegion    = errors.New("polardbmp: no such memory region")
	ErrNoService   = errors.New("polardbmp: no such rpc service")
	ErrOutOfBounds = errors.New("polardbmp: region access out of bounds")

	// Transient communication faults (chaos-injected). These are the only
	// errors IsTransient accepts: the communication layer retries them with
	// backoff, unlike crash fences and deadlocks which must fail fast.
	ErrInjected    = errors.New("polardbmp: injected transient fault")
	ErrUnreachable = errors.New("polardbmp: destination unreachable")

	// ErrUnknownNode reports a node id outside the membership table or never
	// allocated — and, from slot allocation, a table with no free slot left.
	// Every bounds path across membership/core returns this one sentinel so
	// callers on either side of a socket can classify it with errors.Is.
	ErrUnknownNode = errors.New("polardbmp: unknown node id")

	// ErrCommitAmbiguous means a commit request was sent but the connection
	// died before the outcome came back: the server may or may not have
	// committed. It is deliberately NOT retryable and NOT transient — blindly
	// re-running the transaction could double-apply it. The caller must
	// resolve the real outcome (wire.Client.ResolveTx / core.TxStatus) before
	// deciding anything.
	ErrCommitAmbiguous = errors.New("polardbmp: commit outcome unknown")

	// ErrDraining means the target node is gracefully draining and refuses
	// new transactions. It is deliberately NOT retryable against the same
	// node (the drain only moves forward); callers — the gateway, a load
	// balancer, an application retry loop — should route the transaction to
	// another primary instead.
	ErrDraining = errors.New("polardbmp: node is draining")
)

// IsRetryable reports whether err represents a transient transaction failure
// the application is expected to retry (deadlock / OCC conflict / lock
// timeout / buffer pool overload), matching how Aurora-MM surfaces write
// conflicts (§2.3). ErrDeadlineExceeded is deliberately absent: the budget
// was the application's own bound, so retrying inside it is meaningless.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrWriteConflict) ||
		errors.Is(err, ErrLockTimeout) || errors.Is(err, ErrFenced) ||
		errors.Is(err, ErrOverloaded)
}
