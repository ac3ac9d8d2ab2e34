package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// verbLayouts is every fabric request written out once more, so the fuzzer
// can tell a well-formed request from a malformed one without the decoder
// under test: the fixed fields, then — when the second string is set — a
// u32 count and that many repeated elements. 'n' is a u16, 'q' a u64, 'w' a
// u32 and 'b' a u32-length-prefixed byte string.
var verbLayouts = map[Op][2]string{
	OpRead: {"nnbqw"}, OpWrite: {"nnbqb"},
	OpReadV: {"nnb", "qw"}, OpWriteV: {"nnb", "qb"},
	OpCAS: {"nnbqqq"}, OpFAA: {"nnbqqq"},
	OpCall: {"nnbb"}, OpCallBatch: {"nnb", "b"},
}

var fieldBytes = map[rune]int{'n': 2, 'q': 8, 'w': 4, 'b': 4}

// walk consumes layout's fields from p.
func walk(p []byte, layout string) ([]byte, bool) {
	for _, c := range layout {
		n := fieldBytes[c]
		if c == 'b' && len(p) >= 4 {
			n += int(binary.LittleEndian.Uint32(p))
		}
		if n > len(p) {
			return nil, false
		}
		p = p[n:]
	}
	return p, true
}

// fitsVerb reports whether p is exactly op's layout.
func fitsVerb(op Op, p []byte) bool {
	l := verbLayouts[op]
	p, ok := walk(p, l[0])
	if ok && l[1] != "" {
		var k []byte
		if k, ok = p, len(p) >= 4; ok {
			p = p[4:]
			for i := uint32(0); ok && i < binary.LittleEndian.Uint32(k); i++ {
				p, ok = walk(p, l[1])
			}
		}
	}
	return ok && len(p) == 0
}

// sampleVerbs is one well-formed request per fabric op, issued by node 2
// against the region and service verbFabric hosts on node 1.
func sampleVerbs() map[Op][]byte {
	h := func() []byte { return verbHeader(2, 1, "mem") }
	seg := func(b []byte, off uint64) []byte { return wire.AppendU64(b, off) }
	call := func() []byte { return verbHeader(2, 1, "echo") }
	return map[Op][]byte{
		OpRead:      wire.AppendU32(seg(h(), 8), 16),
		OpWrite:     wire.AppendBytes(seg(h(), 8), []byte("written")),
		OpReadV:     wire.AppendU32(seg(wire.AppendU32(seg(wire.AppendU32(h(), 2), 0), 8), 32), 4),
		OpWriteV:    wire.AppendBytes(seg(wire.AppendBytes(seg(wire.AppendU32(h(), 2), 0), []byte("ab")), 32), []byte("cd")),
		OpCAS:       wire.AppendU64(wire.AppendU64(seg(h(), 40), 0), 7),
		OpFAA:       wire.AppendU64(wire.AppendU64(seg(h(), 48), 3), 0),
		OpCall:      wire.AppendBytes(call(), []byte("ping")),
		OpCallBatch: wire.AppendBytes(wire.AppendBytes(wire.AppendU32(call(), 2), []byte("a")), []byte("b")),
	}
}

// verbFabric is a fabric hosting node 1 with one 64-byte region, "mem",
// and an echo service, served through a peerLink as a remote peer's verbs
// are.
func verbFabric() (*peerLink, *Region) {
	f := NewFabric(Latency{})
	ep := f.Register(1)
	r := ep.RegisterRegion("mem", 64)
	ep.Serve("echo", func(req []byte) ([]byte, error) { return req, nil })
	return &peerLink{f: f}, r
}

func regionBytes(r *Region) []byte {
	b := make([]byte, r.Size())
	_ = r.LocalRead(0, b)
	return b
}

func TestVerbSamplesAreWellFormed(t *testing.T) {
	samples := sampleVerbs()
	if len(samples) != len(verbLayouts) {
		t.Fatalf("samples cover %d ops of %d", len(samples), len(verbLayouts))
	}
	for op, p := range samples {
		if !fitsVerb(op, p) {
			t.Errorf("op %d sample %x does not fit its layout", op, p)
		}
		l, _ := verbFabric()
		if _, err := l.execute(uint8(op), p); err != nil {
			t.Errorf("op %d sample %x: %v", op, p, err)
		}
	}
}

// TestFabricExecuteRefusesOverclaimedCount: a vectored request whose
// element count its payload cannot hold is refused as corrupt before
// anything is sized from the count.
func TestFabricExecuteRefusesOverclaimedCount(t *testing.T) {
	for _, op := range []Op{OpReadV, OpWriteV, OpCallBatch} {
		l, _ := verbFabric()
		p := wire.AppendU32(verbHeader(2, 1, "m"), 1<<20)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := l.execute(uint8(op), p)
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, common.ErrCorrupt) {
			t.Errorf("op %d claiming 2^20 elements in %d bytes: err = %v, want ErrCorrupt", op, len(p), err)
		}
		if a := m1.TotalAlloc - m0.TotalAlloc; a > 64<<10 {
			t.Errorf("op %d claiming 2^20 elements in %d bytes allocated %d bytes", op, len(p), a)
		}
	}
}

// FuzzFabricExecute: no request panics the fabric's verb decoder; one that
// does not fit its op's layout is refused as corrupt, and one well-formed is
// not; and a verb that fails leaves every region byte as it was.
func FuzzFabricExecute(f *testing.F) {
	for op, p := range sampleVerbs() {
		f.Add(uint8(op), p)
	}
	// An offset whose end overflows int once panicked the bounds check.
	f.Add(uint8(OpRead), wire.AppendU32(wire.AppendU64(verbHeader(2, 1, "mem"), 1<<63-1), 16))
	f.Fuzz(func(t *testing.T, op uint8, p []byte) {
		l, r := verbFabric()
		before := regionBytes(r)
		_, err := l.execute(op, p)
		if _, known := verbLayouts[Op(op)]; !known {
			if !errors.Is(err, common.ErrNoService) {
				t.Fatalf("unknown op %d: err = %v, want ErrNoService", op, err)
			}
		} else if fits := fitsVerb(Op(op), p); fits == errors.Is(err, common.ErrCorrupt) {
			t.Fatalf("op %d request %x (fits its layout: %v): err = %v", op, p, fits, err)
		}
		if err != nil && !bytes.Equal(regionBytes(r), before) {
			t.Fatalf("op %d request %x failed (%v) but changed the region", op, p, err)
		}
	})
}
