package common

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
)

// Epoch is a cluster membership epoch: a monotonically increasing counter
// bumped every time the membership changes (a node joins, or a survivor
// evicts a suspect). A node learns its incarnation epoch when it joins and
// stamps it on every fusion-service request; PMFS rejects requests carrying
// an epoch that no longer names a live incarnation, fencing out zombies
// that were evicted while merely slow.
type Epoch uint64

// ErrStaleEpoch reports a request stamped with an evicted incarnation's
// epoch. It is deliberately NOT transient (Retry fails fast) and NOT
// retryable at the application level: the issuing node has been fenced out
// of the cluster and must abort, not retry — retrying would be exactly the
// zombie behaviour the epoch exists to stop.
var ErrStaleEpoch = errors.New("polardbmp: stale cluster epoch")

// EpochGate validates a request's (node, epoch) stamp against the current
// membership. A nil gate (membership not wired) accepts everything; gated
// servers must also accept epoch 0, which marks system-internal or
// pre-membership requests.
type EpochGate func(node NodeID, e Epoch) error

// EpochStamp is a node's current incarnation epoch, shared by all of its
// fusion clients. A nil *EpochStamp is valid and stamps nothing: the
// request then ends at its last field, which servers read as epoch 0.
type EpochStamp struct{ v atomic.Uint64 }

// Load returns the current epoch (0 until the node joins).
func (s *EpochStamp) Load() Epoch {
	if s == nil {
		return 0
	}
	return Epoch(s.v.Load())
}

// Store publishes a new incarnation epoch.
func (s *EpochStamp) Store(e Epoch) { s.v.Store(uint64(e)) }

// StampLen is the length of the epoch stamp. An encoder of a stamped request
// reserves it in the buffer's capacity, so that Stamp appends in place.
const StampLen = 8

// Stamp appends the current epoch to a fusion request as an optional
// trailing field: exactly StampLen bytes after the request's last field,
// which servers read with wire.Reader.Epoch. A cut stamp is a corrupt
// request. Stamp writes into req's spare capacity, so one request buffer
// must not be stamped by two calls at once.
func (s *EpochStamp) Stamp(req []byte) []byte {
	if s == nil {
		return req
	}
	return binary.LittleEndian.AppendUint64(req, s.v.Load())
}

// TrailingEpoch extracts the epoch stamped after a request's fixed base
// length, or 0 when fewer than 8 bytes follow it — so a cut stamp reads as
// unstamped. Only the txfusion handler still decodes by hand offsets and
// calls it; every other fusion service reads its stamp with
// wire.Reader.Epoch, and this goes when txfusion does too.
func TrailingEpoch(req []byte, base int) Epoch {
	if len(req) < base+StampLen {
		return 0
	}
	return Epoch(binary.LittleEndian.Uint64(req[base:]))
}
