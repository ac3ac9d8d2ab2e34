// Package wire is the binary framing layer shared by every network-facing
// component: the socket fabric transport (rdma), the client session protocol
// (mpserver/mpshell/mpbench) and the gateway proxy. It is a deliberately
// tiny codec — length-prefixed frames with a kind/op/id header — over which
// each protocol defines its own op vocabulary, plus Link, the one pipelined
// connection both protocols run on, and the typed error mapping that lets
// errors.Is semantics survive a process boundary.
//
// Frame layout on the wire (all integers little-endian):
//
//	u32  length of the remainder (kind..payload), 10 ≤ length ≤ MaxFrame
//	u8   kind (request / response / control)
//	u8   op (protocol-specific opcode)
//	u64  id (request/response correlation; pipelining token)
//	...  payload (length-10 bytes)
package wire

import (
	"errors"
	"fmt"
	"io"
)

// Frame kinds. Requests carry an op and expect a response bearing the same
// id; control frames run the handshake and never interleave with requests.
const (
	KindRequest  = 1
	KindResponse = 2
	KindControl  = 3
)

const (
	// frameHeader is the fixed kind+op+id portion counted by the length
	// prefix.
	frameHeader = 1 + 1 + 8
	// MaxFrame bounds the length prefix: nothing in the protocols ships
	// more than a few pages per frame, so anything bigger is a corrupt or
	// hostile stream and is rejected before allocation.
	MaxFrame = 16 << 20
)

// Codec errors. ErrFrameTooLarge and ErrBadFrame mark streams that cannot be
// resynchronized; callers must drop the connection.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size bound")
	ErrBadFrame      = errors.New("wire: malformed frame")
)

// Frame is one decoded protocol frame. Payload aliases the decode buffer and
// must be copied if retained beyond the next read.
type Frame struct {
	Kind    uint8
	Op      uint8
	ID      uint64
	Payload []byte
}

// WireSize returns the frame's encoded size including the length prefix.
func (f Frame) WireSize() int { return 4 + frameHeader + len(f.Payload) }

// AppendFrame appends the encoded frame to b and returns the extended slice.
func AppendFrame(b []byte, f Frame) []byte {
	n := frameHeader + len(f.Payload)
	b = AppendU32(b, uint32(n))
	b = append(b, f.Kind, f.Op)
	b = AppendU64(b, f.ID)
	return append(b, f.Payload...)
}

// DecodeFrame decodes one frame from the front of b, returning the number of
// bytes consumed. io.ErrUnexpectedEOF reports a frame truncated mid-body;
// decoding continues once more bytes arrive only for that error.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	n := int(u32(b))
	if n < frameHeader {
		return Frame{}, 0, fmt.Errorf("wire: frame length %d below header: %w", n, ErrBadFrame)
	}
	if n > MaxFrame {
		return Frame{}, 0, fmt.Errorf("wire: frame length %d: %w", n, ErrFrameTooLarge)
	}
	if len(b) < 4+n {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	f := Frame{
		Kind:    b[4],
		Op:      b[5],
		ID:      u64(b[6:]),
		Payload: b[14 : 4+n],
	}
	return f, 4 + n, nil
}

// ReadFrame reads exactly one frame from r. buf is an optional reusable
// scratch buffer; the returned slice is the (possibly grown) scratch to pass
// back in, and the frame's payload aliases it.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, buf, err
	}
	n := int(u32(hdr[:]))
	if n < frameHeader {
		return Frame{}, buf, fmt.Errorf("wire: frame length %d below header: %w", n, ErrBadFrame)
	}
	if n > MaxFrame {
		return Frame{}, buf, fmt.Errorf("wire: frame length %d: %w", n, ErrFrameTooLarge)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:cap(buf)]
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	f := Frame{
		Kind:    buf[0],
		Op:      buf[1],
		ID:      u64(buf[2:]),
		Payload: buf[10:n],
	}
	return f, buf, nil
}

// WriteFrame encodes f into scratch and writes it to w in one call (one
// syscall on an unbuffered conn; the caller serializes concurrent writers).
// The returned slice is the grown scratch buffer for reuse.
func WriteFrame(w io.Writer, scratch []byte, f Frame) ([]byte, error) {
	scratch = AppendFrame(scratch[:0], f)
	_, err := w.Write(scratch)
	return scratch, err
}
