package wire

import (
	"sync/atomic"

	"polardbmp/internal/metrics"
)

// NetCounters aggregates network-layer observability for one process: every
// framed connection (fabric peer links and client sessions) feeds the same
// instance, and its Snapshot is the net section of the stats JSON.
// All methods are nil-safe so instrumentation points need no guards.
type NetCounters struct {
	ConnsAccepted metrics.Counter
	ConnsDialed   metrics.Counter
	FramesIn      metrics.Counter
	FramesOut     metrics.Counter
	BytesIn       metrics.Counter
	BytesOut      metrics.Counter
	CodecErrors   metrics.Counter

	connsOpen atomic.Int64
	// pipeline tracks in-flight requests per process (depth gauge + high
	// watermark), the observable that shows pipelining actually happens.
	pipelineCur atomic.Int64
	pipelineMax atomic.Int64
}

// ConnOpened records an accepted or dialed connection becoming live.
func (n *NetCounters) ConnOpened(accepted bool) {
	if n == nil {
		return
	}
	if accepted {
		n.ConnsAccepted.Inc()
	} else {
		n.ConnsDialed.Inc()
	}
	n.connsOpen.Add(1)
}

// ConnClosed records a live connection going away.
func (n *NetCounters) ConnClosed() {
	if n != nil {
		n.connsOpen.Add(-1)
	}
}

// FrameIn records one received frame of total wire size bytes.
func (n *NetCounters) FrameIn(bytes int) {
	if n != nil {
		n.FramesIn.Inc()
		n.BytesIn.Add(int64(bytes))
	}
}

// FrameOut records one sent frame of total wire size bytes.
func (n *NetCounters) FrameOut(bytes int) {
	if n != nil {
		n.FramesOut.Inc()
		n.BytesOut.Add(int64(bytes))
	}
}

// CodecError records an unrecoverable framing error (connection dropped).
func (n *NetCounters) CodecError() {
	if n != nil {
		n.CodecErrors.Inc()
	}
}

// EnterOp marks one request in flight; pair with LeaveOp.
func (n *NetCounters) EnterOp() {
	if n == nil {
		return
	}
	d := n.pipelineCur.Add(1)
	for {
		m := n.pipelineMax.Load()
		if d <= m || n.pipelineMax.CompareAndSwap(m, d) {
			return
		}
	}
}

// LeaveOp marks one request finished.
func (n *NetCounters) LeaveOp() {
	if n != nil {
		n.pipelineCur.Add(-1)
	}
}

// NetSnapshot is a point-in-time copy of the counters, and as it stands the
// network-layer section of the stats JSON: frame and connection counters for
// every socket this process speaks the wire protocol on (fabric peer links
// and client sessions combined).
type NetSnapshot struct {
	ConnsOpen     int64 `json:"conns_open"`
	ConnsAccepted int64 `json:"conns_accepted"`
	ConnsDialed   int64 `json:"conns_dialed"`
	FramesIn      int64 `json:"frames_in"`
	FramesOut     int64 `json:"frames_out"`
	BytesIn       int64 `json:"bytes_in"`
	BytesOut      int64 `json:"bytes_out"`
	CodecErrors   int64 `json:"codec_errors"`
	// PipelineDepth is the high watermark of concurrently in-flight
	// requests — the observable showing pipelining actually happens.
	PipelineDepth int64 `json:"pipeline_depth"`
}

// Snapshot returns the current counter values (zero value if n is nil).
func (n *NetCounters) Snapshot() NetSnapshot {
	if n == nil {
		return NetSnapshot{}
	}
	return NetSnapshot{
		ConnsOpen:     n.connsOpen.Load(),
		ConnsAccepted: n.ConnsAccepted.Load(),
		ConnsDialed:   n.ConnsDialed.Load(),
		FramesIn:      n.FramesIn.Load(),
		FramesOut:     n.FramesOut.Load(),
		BytesIn:       n.BytesIn.Load(),
		BytesOut:      n.BytesOut.Load(),
		CodecErrors:   n.CodecErrors.Load(),
		PipelineDepth: n.pipelineMax.Load(),
	}
}
