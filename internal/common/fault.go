package common

import "time"

// Fault injection plumbing shared by the fabric (internal/rdma) and the
// shared store (internal/storage). Both expose a SetInjector hook; the
// chaos engine (internal/chaos) implements FaultInjector and drives every
// per-op fault decision from a single seed so a failure run is replayable.
//
// The types live here — at the bottom of the import graph — so that one
// injector can serve both layers without rdma/storage importing chaos.

// AnyNode marks an unknown or unspecified initiating node in a FaultOp.
// Raw Fabric verbs (no bound source) and storage page ops report it.
const AnyNode NodeID = 0xFFFE

// StorageNode is the pseudo node id used as the destination of shared
// storage operations in fault descriptors. The store is not a fabric
// endpoint, but giving it an address lets one reachability matrix cover
// "node X lost its storage path" alongside node↔node partitions.
const StorageNode NodeID = 0xFFFD

// Fault op layers.
const (
	FaultLayerRDMA    = "rdma"
	FaultLayerStorage = "storage"
)

// Fault op classes. RDMA classes mirror the fabric verbs; storage classes
// mirror the store's I/O entry points.
const (
	FaultRead      = "read"      // one-sided READ
	FaultWrite     = "write"     // one-sided WRITE
	FaultAtomic    = "atomic"    // CAS / FETCH-ADD
	FaultRPC       = "rpc"       // two-sided call
	FaultPageRead  = "pageread"  // storage page read
	FaultPageWrite = "pagewrite" // storage page write
	FaultLogSync   = "logsync"   // storage log force (delay-only)
	FaultLogRead   = "logread"   // storage log read
)

// FaultOp describes one operation about to execute, in enough detail for
// selector matching and for the structured fault event log.
type FaultOp struct {
	Layer string // FaultLayerRDMA or FaultLayerStorage
	Class string // one of the Fault* class constants
	Src   NodeID // initiating node; AnyNode when the caller is unbound
	Dst   NodeID // target node; StorageNode for storage ops
	Name  string // region name, RPC service, or storage stream label
	Len   int    // payload size in bytes (0 when not applicable)
}

// FaultDecision is an injector's verdict for one operation. The zero value
// means "no fault": the op proceeds normally.
type FaultDecision struct {
	// Delay is extra latency injected before the op executes.
	Delay time.Duration
	// Err, when non-nil, fails the op without executing it (after Delay).
	// Use ErrInjected for transient faults and ErrUnreachable for
	// partitions so hardened clients classify them as retryable.
	Err error
	// DropReply (RPC only) executes the handler but fails the response,
	// exercising retry idempotency. Ignored when Err is set. The issuing
	// rdma.Fabric applies it after the call succeeded and was charged, the
	// same way whichever transport carried the call.
	DropReply bool
	// Duplicate executes an idempotent one-sided READ/WRITE twice,
	// simulating duplicate delivery. Ignored for atomics and RPCs. The
	// issuing rdma.Fabric applies it by running the verb a second time on
	// its transport, and charges each run.
	Duplicate bool
}

// FaultInjector decides the fault treatment of one operation. It is called
// on the op's issuing goroutine and must be safe for concurrent use.
type FaultInjector func(op FaultOp) FaultDecision
