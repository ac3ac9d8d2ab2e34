// Package pmfsrep replicates the PMFS shared-memory tier across K replicas,
// following SWARM's single-round-trip replicated one-sided writes with
// in-band consensus (PAPERS.md). The replicator interposes on the fabric
// route for the PMFS node: every verb that mutates a replicated region
// executes on the leader copy (the real fabric regions) and is mirrored to
// the follower replicas as a versioned record before the verb returns — the
// acks ride the same doorbell batch as the leader op, so the warm commit
// path pays zero extra fabric verbs. Version words (per-chunk sequence
// numbers) gate every follower apply: a retried or duplicated record can
// never double-advance a mirror, and quorum reads repair any follower whose
// version word lags the leader's.
//
// Replica death is a chaos event, not a cluster-ending one: KillReplica
// fences the dead copy, CAS-advances the pmfs epoch exactly once, promotes
// the most-advanced follower if the leader died, and re-seeds the survivors.
// In-flight verbs during the failover window surface as typed-transient
// errors absorbed by the issuing Conns' retry.
package pmfsrep

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Record kinds.
const (
	// RecWrite replicates a one-sided byte-range write (membership
	// heartbeats, DBP frame pushes, any region write).
	RecWrite = 1
	// RecWord replicates the post-image of an 8-byte atomic — a TSO grant's
	// new counter value or a CAS epoch publish. Followers merge words with a
	// seq-gated max rule, so a retried grant can never double-advance.
	RecWord = 2
)

// MaxRecordData bounds one record's payload; a DBP frame push is the
// largest replicated write and fits comfortably.
const MaxRecordData = 1 << 20

// maxRegionName bounds the region-name field (encoded length is one byte).
const maxRegionName = 255

// Record is one replicated PMFS mutation — the in-band ack unit. The leader
// executes the verb on its copy, encodes the record, and each follower's
// version words advance by applying it; a record whose Seq does not exceed
// the follower's current version word is a duplicate and is ignored.
type Record struct {
	Kind   uint8
	Epoch  uint64 // pmfs replication epoch the leader held when issuing
	Seq    uint64 // global replication sequence — the version word
	Region string
	Off    uint32
	Val    uint64 // RecWord: the post-op word value
	Data   []byte // RecWrite: the bytes written (aliases the input on decode)
}

// ErrBadRecord reports a replication record that failed to decode.
var ErrBadRecord = errors.New("pmfsrep: malformed replication record")

// AppendRecord appends r's wire encoding to dst and returns the extended
// slice. Layout (all integers little-endian):
//
//	[kind u8][epoch u64][seq u64][rlen u8][region][off u32]
//	RecWord:  [val u64]
//	RecWrite: [dlen u32][data]
func AppendRecord(dst []byte, r Record) []byte {
	dst = append(dst, r.Kind)
	dst = binary.LittleEndian.AppendUint64(dst, r.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = append(dst, uint8(len(r.Region)))
	dst = append(dst, r.Region...)
	dst = binary.LittleEndian.AppendUint32(dst, r.Off)
	switch r.Kind {
	case RecWord:
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	case RecWrite:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Data)))
		dst = append(dst, r.Data...)
	}
	return dst
}

// DecodeRecord decodes one record from the front of b, returning the record
// and the bytes consumed. Record.Data aliases b — callers that retain the
// record past b's lifetime must copy. On error, consumed is 0.
func DecodeRecord(b []byte) (Record, int, error) {
	fail := func(what string) (Record, int, error) {
		return Record{}, 0, fmt.Errorf("%w: %s", ErrBadRecord, what)
	}
	// Fixed prefix: kind + epoch + seq + rlen.
	if len(b) < 1+8+8+1 {
		return fail("short header")
	}
	var r Record
	r.Kind = b[0]
	if r.Kind != RecWrite && r.Kind != RecWord {
		return fail("unknown kind")
	}
	r.Epoch = binary.LittleEndian.Uint64(b[1:9])
	r.Seq = binary.LittleEndian.Uint64(b[9:17])
	rlen := int(b[17])
	p := 18
	if rlen == 0 {
		return fail("empty region name")
	}
	if len(b) < p+rlen+4 {
		return fail("short region name")
	}
	r.Region = string(b[p : p+rlen])
	p += rlen
	r.Off = binary.LittleEndian.Uint32(b[p : p+4])
	p += 4
	switch r.Kind {
	case RecWord:
		if len(b) < p+8 {
			return fail("short word value")
		}
		r.Val = binary.LittleEndian.Uint64(b[p : p+8])
		p += 8
	case RecWrite:
		if len(b) < p+4 {
			return fail("short data length")
		}
		dlen := int(binary.LittleEndian.Uint32(b[p : p+4]))
		p += 4
		if dlen > MaxRecordData {
			return fail("oversized data")
		}
		if len(b) < p+dlen {
			return fail("short data")
		}
		r.Data = b[p : p+dlen]
		p += dlen
	}
	return r, p, nil
}
