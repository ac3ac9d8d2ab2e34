package rdma

import (
	"polardbmp/internal/common"
)

// Vectored ("doorbell-batched") verbs: one work-request list rung with a
// single doorbell. A real RNIC charges one MMIO + one completion for the
// whole chain, which is why coalescing one-sided ops is the standard lever
// for RDMA-resident data structures; the simulation mirrors that by charging
// ONE injected latency and consulting the fault injector ONCE per batch.
//
// Fault semantics: the injection decision is taken before any segment
// executes, so a dropped/errored batch fails atomically — no segment lands,
// exactly like a chain whose doorbell write never reached the NIC. Segment
// bounds are also validated up front so a malformed element cannot leave a
// partially-applied batch behind. A batch is charged as one op (the doorbell
// is the op-budget unit) with every segment's bytes.

// Seg is one scatter/gather element of a vectored one-sided verb: Buf is
// read into (ReadV) or written from (WriteV) at Off within the region.
type Seg struct {
	Off int
	Buf []byte
}

func segTotal(segs []Seg) int {
	n := 0
	for _, s := range segs {
		n += len(s.Buf)
	}
	return n
}

// ReadV is the unbound-source form of Conn.ReadV.
func (f *Fabric) ReadV(node common.NodeID, region string, segs []Seg) error {
	return f.raw().ReadV(node, region, segs)
}

// WriteV is the unbound-source form of Conn.WriteV.
func (f *Fabric) WriteV(node common.NodeID, region string, segs []Seg) error {
	return f.raw().WriteV(node, region, segs)
}

// CallBatch is the unbound-source form of Conn.CallBatch.
func (f *Fabric) CallBatch(node common.NodeID, service string, reqs [][]byte) ([][]byte, error) {
	return f.raw().CallBatch(node, service, reqs)
}
