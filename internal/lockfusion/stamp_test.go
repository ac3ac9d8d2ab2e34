package lockfusion

import (
	"testing"

	"polardbmp/internal/common"
)

// stampSink keeps the encoded requests on the heap, as Conn.Call sees them.
var stampSink []byte

// TestStampedRequestsAllocateOnce: every encoder of a request a node stamps
// reserves common.StampLen, so the stamp Conn.Call appends lands in place
// and a request costs one allocation, stamped or not.
func TestStampedRequestsAllocateOnce(t *testing.T) {
	stamp := new(common.EpochStamp)
	stamp.Store(3)
	g := common.GTrxID{Node: 1, Trx: 2, Slot: 3, Version: 1}
	pages := []relPage{{pg: 2, mode: ModeX, llsn: 9}, {pg: 3, mode: ModeS}}
	for name, encode := range map[string]func() []byte{
		"plock acquire":        func() []byte { return plockAcquireReqBuf(1, 2, ModeX, 100) },
		"plock release of one": func() []byte { return plockReleaseNBuf(1, pages[:1]) },
		"plock release of two": func() []byte { return plockReleaseNBuf(1, pages) },
		"rlock wait-for":       func() []byte { return marshalTwoG(opWaitFor, g, g) },
	} {
		plain := testing.AllocsPerRun(100, func() { stampSink = encode() })
		stamped := testing.AllocsPerRun(100, func() { stampSink = stamp.Stamp(encode()) })
		if stamped != plain || plain != 1 {
			t.Errorf("%s: %.0f allocs stamped, %.0f unstamped", name, stamped, plain)
		}
	}
}
