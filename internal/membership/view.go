package membership

import (
	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
)

// StateOff returns the region offset of node's state word (the word the
// Table mirrors into the region on every lifecycle transition).
func StateOff(node common.NodeID) int { return SlotOff(node) + offState }

// RemoteView is a satellite process's read-only window onto the seed's
// membership table: lifecycle states are observed with one-sided fabric
// reads of the mirrored region, so no membership RPC and no local Table are
// needed to answer the recovery-fate question readers ask.
type RemoteView struct {
	conn rdma.Conn
}

// NewRemoteView returns a view reading the membership region on the PMFS
// endpoint reachable through conn. Its reads are single-shot: an unreachable
// table already reads as the conservative answer.
func NewRemoteView(conn rdma.Conn) *RemoteView {
	return &RemoteView{conn: conn.WithRetry(common.NoRetryPolicy())}
}

// Recovered mirrors Table.Recovered across the fabric: true once node's
// takeover completed (state Down) or its graceful drain finished (Drained).
// Unreachable tables read as not recovered, which resolves in-doubt versions
// conservatively (still active). Out-of-range ids answer false through the
// same CheckNode bounds rule the Table uses (a boolean question has no error
// channel; callers that need the typed error use CheckNode directly).
func (v *RemoteView) Recovered(node common.NodeID) bool {
	if CheckNode(node) != nil {
		return false
	}
	s, err := v.conn.Read64(common.PMFSNode, Region, StateOff(node))
	return err == nil && (s == StateDown || s == StateDrained)
}

// State reads node's mirrored lifecycle state word; out-of-range ids and
// unreachable tables read as StateFree.
func (v *RemoteView) State(node common.NodeID) uint64 {
	if CheckNode(node) != nil {
		return StateFree
	}
	s, err := v.conn.Read64(common.PMFSNode, Region, StateOff(node))
	if err != nil {
		return StateFree
	}
	return s
}
