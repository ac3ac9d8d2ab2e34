package wire

import (
	"encoding/binary"
	"fmt"

	"polardbmp/internal/common"
)

// Little-endian payload builders, mirroring the fabric services' encoding
// idiom.

// AppendU16 appends v little-endian.
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendBytes appends a u32 length prefix followed by p.
func AppendBytes(b, p []byte) []byte {
	b = AppendU32(b, uint32(len(p)))
	return append(b, p...)
}

// AppendString appends s with a u32 length prefix.
func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

func u16(b []byte) uint16 { return binary.LittleEndian.Uint16(b) }
func u32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
func u64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// Reader is a sticky-error cursor over a payload: decode methods return zero
// values once the payload is exhausted and Err reports the failure, so
// handlers can decode a whole message and check once. It is the one decoder
// of every fabric and session message: a handler reads its fields, checks
// its closed-set values, calls Done, and only then acts. NewReader inlines,
// so a Reader that does not escape lives on the caller's stack.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a cursor over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated payload: %w", common.ErrShortBuffer)
	}
}

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the undecoded remainder of the payload.
func (r *Reader) Rest() []byte { return r.b }

// U8 decodes one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// U16 decodes a little-endian uint16.
func (r *Reader) U16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := u16(r.b)
	r.b = r.b[2:]
	return v
}

// U32 decodes a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := u32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := u64(r.b)
	r.b = r.b[8:]
	return v
}

// Count checks the element count k just decoded (a u32 or a u16 prefix):
// the rest of the payload must hold k elements of at least minElem bytes
// each. A count it cannot hold fails the reader and yields 0, before the
// caller sizes anything from it.
func (r *Reader) Count(k uint32, minElem int) int {
	if r.err != nil {
		return 0
	}
	if rest := len(r.b); int64(k) > int64(rest/minElem) {
		r.err = fmt.Errorf("wire: %d elements in %d bytes", k, rest)
		return 0
	}
	return int(k)
}

// Epoch decodes the optional trailing fusion stamp (common.EpochStamp):
// nothing left is an unstamped request, epoch 0; exactly common.StampLen
// bytes are the epoch; anything else is a cut or overlong stamp and fails the
// reader.
func (r *Reader) Epoch() common.Epoch {
	switch {
	case r.err != nil || len(r.b) == 0:
		return 0
	case len(r.b) != common.StampLen:
		r.err = fmt.Errorf("wire: %d-byte epoch stamp", len(r.b))
		return 0
	}
	return common.Epoch(r.U64())
}

// GTrx decodes a global transaction id in common.GTrxID.Marshal's layout.
func (r *Reader) GTrx() common.GTrxID {
	var g common.GTrxID
	g.Node = common.NodeID(r.U16())
	g.Trx = common.TrxID(r.U64())
	g.Slot = r.U32()
	g.Version = r.U32()
	return g
}

// Done ends a message: it returns common.ErrCorrupt when a field failed to
// decode or bytes are left past the last one, and nil when the payload was
// consumed exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return fmt.Errorf("%v: %w", r.err, common.ErrCorrupt)
	}
	if len(r.b) > 0 {
		return fmt.Errorf("wire: %d bytes past the last field: %w", len(r.b), common.ErrCorrupt)
	}
	return nil
}

// Bytes decodes a u32-length-prefixed byte string. The result aliases the
// payload buffer.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	if r.err != nil || len(r.b) < n {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// Str decodes a u32-length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }
