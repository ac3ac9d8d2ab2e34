package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"polardbmp/internal/common"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindRequest, Op: 7, ID: 1, Payload: []byte("hello")},
		{Kind: KindResponse, Op: 0, ID: 1 << 60, Payload: nil},
		{Kind: KindControl, Op: 255, ID: 0, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var b []byte
	for _, f := range frames {
		b = AppendFrame(b, f)
	}
	for i, want := range frames {
		got, n, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Op != want.Op || got.ID != want.ID ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		b = b[n:]
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
}

func TestReadFrameStream(t *testing.T) {
	var b []byte
	b = AppendFrame(b, Frame{Kind: KindRequest, Op: 3, ID: 42, Payload: []byte("abc")})
	b = AppendFrame(b, Frame{Kind: KindResponse, Op: 3, ID: 42, Payload: []byte("xyz")})
	r := bytes.NewReader(b)
	var scratch []byte
	f1, scratch, err := ReadFrame(r, scratch)
	if err != nil || string(f1.Payload) != "abc" {
		t.Fatalf("first frame: %v %q", err, f1.Payload)
	}
	f2, _, err := ReadFrame(r, scratch)
	if err != nil || string(f2.Payload) != "xyz" || f2.Kind != KindResponse {
		t.Fatalf("second frame: %v %+v", err, f2)
	}
	if _, _, err := ReadFrame(r, nil); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, Frame{Kind: KindRequest, Op: 1, ID: 9, Payload: []byte("payload")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeFrame(full[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

func TestDecodeFrameRejectsBadLengths(t *testing.T) {
	tooSmall := AppendU32(nil, 4) // below the 10-byte header
	if _, _, err := DecodeFrame(append(tooSmall, make([]byte, 8)...)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("undersized length: want ErrBadFrame, got %v", err)
	}
	tooBig := AppendU32(nil, MaxFrame+1)
	if _, _, err := DecodeFrame(append(tooBig, make([]byte, 32)...)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length: want ErrFrameTooLarge, got %v", err)
	}
	// ReadFrame must reject the oversized prefix without allocating it.
	if _, _, err := ReadFrame(bytes.NewReader(tooBig), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame oversized: got %v", err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	for _, e := range codeTable {
		b := AppendStatus(nil, e.err)
		got := DecodeStatus(NewReader(b))
		if !errors.Is(got, e.err) {
			t.Fatalf("code %d: errors.Is lost across the wire: got %v want %v", e.code, got, e.err)
		}
	}
	// Wrapped errors keep both message and sentinel.
	wrapped := errorsJoin()
	b := AppendStatus(nil, wrapped)
	got := DecodeStatus(NewReader(b))
	if !errors.Is(got, common.ErrOverloaded) {
		t.Fatalf("wrapped: lost sentinel: %v", got)
	}
	if got.Error() != wrapped.Error() {
		t.Fatalf("wrapped: lost message: %q vs %q", got.Error(), wrapped.Error())
	}
	// nil round-trips to nil; unknown errors stay plain but readable.
	if err := DecodeStatus(NewReader(AppendStatus(nil, nil))); err != nil {
		t.Fatalf("nil error decoded as %v", err)
	}
	plain := errors.New("some backend failure")
	if err := DecodeStatus(NewReader(AppendStatus(nil, plain))); err == nil || err.Error() != plain.Error() {
		t.Fatalf("plain error mangled: %v", err)
	}
}

func errorsJoin() error {
	return errors.Join(errors.New("lock stripe 7 shed request"), common.ErrOverloaded)
}

func TestReaderSticky(t *testing.T) {
	r := NewReader(AppendU16(nil, 7))
	if r.U16() != 7 || r.Err() != nil {
		t.Fatal("first read failed")
	}
	_ = r.U64() // past the end
	if !errors.Is(r.Err(), common.ErrShortBuffer) {
		t.Fatalf("want sticky ErrShortBuffer, got %v", r.Err())
	}
	if r.U32() != 0 || r.Bytes() != nil {
		t.Fatal("reads after error must return zero values")
	}
}

// TestReaderDone: Done refuses a failed field, an element count the rest
// cannot hold, a cut or overlong epoch stamp, and bytes past the last field,
// all as ErrCorrupt; a message consumed exactly passes.
func TestReaderDone(t *testing.T) {
	g := common.GTrxID{Node: 3, Trx: 4, Slot: 5, Version: 6}
	msg := AppendU16(g.Marshal(nil), 2)
	msg = AppendU16(AppendU16(msg, 7), 8)
	decode := func(b []byte) (common.GTrxID, []uint16, common.Epoch, error) {
		rd := NewReader(b)
		got := rd.GTrx()
		elems := make([]uint16, rd.Count(uint32(rd.U16()), 2))
		for i := range elems {
			elems[i] = rd.U16()
		}
		e := rd.Epoch()
		return got, elems, e, rd.Done()
	}
	if got, elems, e, err := decode(msg); err != nil || got != g || len(elems) != 2 || elems[1] != 8 || e != 0 {
		t.Fatalf("unstamped: %v %v %d %v", got, elems, e, err)
	}
	if _, _, e, err := decode(AppendU64(msg, 9)); err != nil || e != 9 {
		t.Fatalf("stamped: epoch %d, %v", e, err)
	}
	for name, b := range map[string][]byte{
		"cut field":      msg[:5],
		"overlong count": append(AppendU16(g.Marshal(nil), 3), 0, 7, 0, 8),
		"cut stamp":      AppendU64(msg, 9)[:len(msg)+7],
		"overlong stamp": append(AppendU64(msg, 9), 0),
	} {
		if _, _, _, err := decode(b); !errors.Is(err, common.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	rd := NewReader([]byte{1, 2})
	rd.U8()
	if err := rd.Done(); !errors.Is(err, common.ErrCorrupt) {
		t.Errorf("a byte past the last field: err = %v, want ErrCorrupt", err)
	}
}

func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Kind: KindRequest, Op: 1, ID: 7, Payload: []byte("seed")}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add(AppendU32(nil, MaxFrame+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("error with %d consumed", n)
			}
			return
		}
		if n < frameHeader+4 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// Whatever decoded must re-encode to the exact consumed bytes.
		re := AppendFrame(nil, fr)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in %x\nout %x", data[:n], re)
		}
	})
}
