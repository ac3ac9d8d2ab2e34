package rdma

import (
	"encoding/binary"

	"polardbmp/internal/common"
)

// Conn is a source-bound view of the fabric and the one way components issue
// verbs: it binds the issuing node (fault injection models node↔node
// partitions and slow links by it), that node's per-source stats, a deadline,
// a retry policy and an epoch stamp. Every verb retries transient faults
// itself, under the policy and within the deadline, so callers write the bare
// verb — which must therefore be idempotent under a lost request and a lost
// reply. Only the issuer retries; the serving side runs each attempt once.
// The raw Fabric methods issue single-shot ops with an unbound (AnyNode)
// source.
type Conn struct {
	f     *Fabric
	src   common.NodeID
	ss    *Stats // per-source mirror of the fabric counters
	dl    common.Deadline
	retry common.RetryPolicy
	stamp *common.EpochStamp
}

// From returns a Conn issuing ops as src, under the fabric's Conn retry
// policy (SetConnRetry) and src's bound epoch stamp (BindStamp). An AnyNode
// Conn is unbound, as the raw Fabric methods are: its verbs are charged to
// the fabric-wide Stats only, and it stamps nothing.
func (f *Fabric) From(src common.NodeID) Conn {
	f.srcMu.Lock()
	defer f.srcMu.Unlock()
	if src == common.AnyNode {
		return Conn{f: f, src: src, retry: f.retry}
	}
	s := f.sourceLocked(src)
	return Conn{f: f, src: src, ss: &s.stats, retry: f.retry, stamp: s.stamp}
}

// Fabric returns the underlying fabric.
func (c Conn) Fabric() *Fabric { return c.f }

// WithDeadline returns a copy of the connection that refuses to issue NEW
// verbs once dl expires, failing them with ErrDeadlineExceeded before they
// reach the wire, and whose retry backoff never sleeps past dl. Verbs already
// in flight are not interrupted (one-sided RDMA has no cancel). Conn is a
// value, so this is allocation-free and the base connection is unchanged.
func (c Conn) WithDeadline(dl common.Deadline) Conn {
	c.dl = dl
	return c
}

// WithRetry returns a copy of the connection whose verbs retry under p;
// common.NoRetryPolicy makes them single-shot.
func (c Conn) WithRetry(p common.RetryPolicy) Conn {
	c.retry = p
	return c
}

// WithStamp returns a copy of the connection that appends s's epoch to every
// Call and CallBatch request (nil: unstamped).
func (c Conn) WithStamp(s *common.EpochStamp) Conn {
	c.stamp = s
	return c
}

// RetryPolicy returns the policy the connection's verbs retry under.
func (c Conn) RetryPolicy() common.RetryPolicy { return c.retry }

// exec issues v from the connection's source: each attempt first checks
// the deadline, and a transient fault retries under the policy.
func (c Conn) exec(v *Verb) (res Result, err error) {
	v.Src = c.src
	err = common.RetryDeadline(c.retry, c.dl, func() (e error) {
		if e = c.dl.Err(); e != nil {
			return e
		}
		res, e = c.f.issue(v, c.ss)
		return e
	})
	return res, err
}

// Read performs a one-sided read of len(dst) bytes from (node, region, off).
func (c Conn) Read(node common.NodeID, region string, off int, dst []byte) error {
	_, err := c.exec(&Verb{Op: OpRead, Node: node, Name: region, Off: off, Buf: dst})
	return err
}

// Write performs a one-sided write of data to (node, region, off).
func (c Conn) Write(node common.NodeID, region string, off int, data []byte) error {
	_, err := c.exec(&Verb{Op: OpWrite, Node: node, Name: region, Off: off, Buf: data})
	return err
}

// Read64 reads an 8-byte little-endian word.
func (c Conn) Read64(node common.NodeID, region string, off int) (uint64, error) {
	var b [8]byte
	if err := c.Read(node, region, off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Write64 writes an 8-byte little-endian word.
func (c Conn) Write64(node common.NodeID, region string, off int, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return c.Write(node, region, off, b[:])
}

// CAS64 atomically compares-and-swaps the word at (node, region, off).
func (c Conn) CAS64(node common.NodeID, region string, off int, old, new uint64) (uint64, error) {
	res, err := c.exec(&Verb{Op: OpCAS, Node: node, Name: region, Off: off, A: old, B: new})
	return res.Prev, err
}

// FetchAdd64 atomically adds delta to the word at (node, region, off).
func (c Conn) FetchAdd64(node common.NodeID, region string, off int, delta uint64) (uint64, error) {
	res, err := c.exec(&Verb{Op: OpFAA, Node: node, Name: region, Off: off, A: delta})
	return res.Prev, err
}

// Call invokes an RPC service method on node. The request is stamped once,
// so every attempt carries the same epoch.
func (c Conn) Call(node common.NodeID, service string, req []byte) ([]byte, error) {
	res, err := c.exec(&Verb{Op: OpCall, Node: node, Name: service, Buf: c.stamp.Stamp(req)})
	return res.Resp, err
}

// ReadV performs a doorbell-batched one-sided read of every segment from
// (node, region). Empty batches are no-ops; a single-segment batch is
// equivalent to Read.
func (c Conn) ReadV(node common.NodeID, region string, segs []Seg) error {
	_, err := c.exec(&Verb{Op: OpReadV, Node: node, Name: region, Segs: segs})
	return err
}

// WriteV performs a doorbell-batched one-sided write of every segment to
// (node, region).
func (c Conn) WriteV(node common.NodeID, region string, segs []Seg) error {
	_, err := c.exec(&Verb{Op: OpWriteV, Node: node, Name: region, Segs: segs})
	return err
}

// CallBatch invokes service once per request in a single fabric round trip
// (the RPC analogue of a doorbell chain), each request stamped as Call stamps
// it. On success resp[i] answers reqs[i]. A mid-batch handler error fails the
// whole call, and a retry re-runs the whole batch: it must be idempotent as a
// unit.
func (c Conn) CallBatch(node common.NodeID, service string, reqs [][]byte) ([][]byte, error) {
	if c.stamp != nil {
		stamped := make([][]byte, len(reqs))
		for i, req := range reqs {
			stamped[i] = c.stamp.Stamp(req)
		}
		reqs = stamped
	}
	resps := make([][]byte, len(reqs))
	if _, err := c.exec(&Verb{Op: OpCallBatch, Node: node, Name: service, Reqs: reqs, Resps: resps}); err != nil {
		return nil, err
	}
	return resps, nil
}
