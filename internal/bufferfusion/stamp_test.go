package bufferfusion

import (
	"testing"

	"polardbmp/internal/common"
)

// stampSink keeps the encoded requests on the heap, as Conn.Call sees them.
var stampSink []byte

// TestStampedRequestsAllocateOnce: the directory request encoder reserves
// common.StampLen, so the stamp Conn.Call appends lands in place and a
// request costs one allocation, stamped or not.
func TestStampedRequestsAllocateOnce(t *testing.T) {
	stamp := new(common.EpochStamp)
	stamp.Store(3)
	encode := func() []byte { return bufReq(opPushed, 1, 2, 3, 1) }
	plain := testing.AllocsPerRun(100, func() { stampSink = encode() })
	stamped := testing.AllocsPerRun(100, func() { stampSink = stamp.Stamp(encode()) })
	if stamped != plain || plain != 1 {
		t.Errorf("%.0f allocs stamped, %.0f unstamped", stamped, plain)
	}
}
