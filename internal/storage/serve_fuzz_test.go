package storage

import (
	"errors"
	"reflect"
	"testing"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// reqLayouts is the body of every storage request, written out once more so
// the fuzzer can tell a well-formed request from a malformed one without the
// decoder under test: 'n' a u16 node, 'q' a u64, 'w' a u32, 'b' a
// u32-length-prefixed byte string. sopLogSync has two forms.
var reqLayouts = map[uint8][]string{
	sopAllocPage: {""}, sopReadPage: {"q"}, sopWritePage: {"qb"},
	sopPageIDs: {""}, sopPutMeta: {"bb"}, sopGetMeta: {"b"},
	sopLogAppendAt: {"nqb"}, sopLogSync: {"n", "nqb"}, sopLogEnd: {"n"},
	sopLogDurable: {"n"}, sopLogStart: {"n"}, sopLogRead: {"nqw"}, sopLogCrash: {"n"},
	sopLogFence: {"n"}, sopLogUnfence: {"n"},
	sopLogTruncate: {"nq"}, sopLogNodes: {""},
}

var fieldSize = map[rune]int{'n': 2, 'q': 8, 'w': 4, 'b': 4}

// fits reports whether body is exactly one of layouts.
func fits(body []byte, layouts []string) bool {
	for _, layout := range layouts {
		b, ok := body, true
		for _, c := range layout {
			n := fieldSize[c]
			if c == 'b' && len(b) >= 4 {
				n += int(wire.NewReader(b).U32())
			}
			if n > len(b) {
				ok = false
				break
			}
			b = b[n:]
		}
		if ok && len(b) == 0 {
			return true
		}
	}
	return false
}

// sampleRequests is one well-formed request per storage op.
func sampleRequests() [][]byte {
	node := func(op uint8) []byte { return wire.AppendU16([]byte{op}, 1) }
	return [][]byte{
		{sopAllocPage},
		wire.AppendU64([]byte{sopReadPage}, 1),
		wire.AppendBytes(wire.AppendU64([]byte{sopWritePage}, 2), []byte("img")),
		{sopPageIDs},
		wire.AppendBytes(wire.AppendString([]byte{sopPutMeta}, "k2"), []byte("v2")),
		wire.AppendString([]byte{sopGetMeta}, "k"),
		wire.AppendBytes(wire.AppendU64(node(sopLogAppendAt), 14), []byte("rec")),
		node(sopLogSync),
		wire.AppendBytes(wire.AppendU64(node(sopLogSync), 14), []byte("rec")),
		node(sopLogEnd),
		node(sopLogDurable),
		node(sopLogStart),
		wire.AppendU32(wire.AppendU64(node(sopLogRead), 0), 64),
		node(sopLogCrash),
		node(sopLogFence),
		node(sopLogUnfence),
		wire.AppendU64(node(sopLogTruncate), 2),
		{sopLogNodes},
	}
}

// retiredRequests is one request per deleted op number (HasPage, PageCount,
// LogFenced), as a client built before their deletion would send it.
func retiredRequests() [][]byte {
	return [][]byte{
		wire.AppendU64([]byte{4}, 1),
		{6},
		wire.AppendU16([]byte{18}, 1),
	}
}

// storeState is everything a storage request may change.
type storeState struct {
	pages    map[common.PageID]string
	meta     map[string]string
	nextPage uint64
	logs     map[common.NodeID]streamState
}

type streamState struct {
	buf     string
	durable int
	base    common.LSN
	fenced  bool
}

func stateOf(s *Store) storeState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := storeState{pages: map[common.PageID]string{}, meta: map[string]string{}, nextPage: s.nextPage, logs: map[common.NodeID]streamState{}}
	for id, img := range s.pages {
		st.pages[id] = string(img)
	}
	for k, v := range s.meta {
		st.meta[k] = string(v)
	}
	for node, ls := range s.logs {
		ls.mu.Lock()
		st.logs[node] = streamState{string(ls.buf), ls.durable, ls.base, ls.fenced}
		ls.mu.Unlock()
	}
	return st
}

// FuzzStorageServeOp: no request panics the storage service, and a request
// that is short, carries bytes past its last field, or names no op (a
// deleted one included) is refused without changing a page, a metadata blob
// or a log stream.
func FuzzStorageServeOp(f *testing.F) {
	for _, req := range append(sampleRequests(), retiredRequests()...) {
		f.Add(req)
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		s := New(Latency{})
		_ = s.WritePage(s.AllocPage(), []byte("page"))
		s.PutMeta("k", []byte("v"))
		for _, node := range []common.NodeID{0, 1} {
			s.LogAppend(node, []byte("synced"))
			s.LogSync(node)
			s.LogAppend(node, []byte("volatile"))
		}
		before := stateOf(s)
		_, err := serveOp(s, req)
		want := common.ErrCorrupt
		if len(req) > 0 {
			layouts, known := reqLayouts[req[0]]
			if known && fits(req[1:], layouts) {
				return
			}
			if !known {
				want = common.ErrNoService
			}
		}
		if !errors.Is(err, want) {
			t.Fatalf("malformed request %x: err = %v, want %v", req, err, want)
		}
		if after := stateOf(s); !reflect.DeepEqual(after, before) {
			t.Fatalf("malformed request %x changed the store:\n%+v\nwas\n%+v", req, after, before)
		}
	})
}

func TestSampleRequestsAreWellFormed(t *testing.T) {
	seen := map[uint8]bool{}
	for _, req := range sampleRequests() {
		if !fits(req[1:], reqLayouts[req[0]]) {
			t.Errorf("sample %x does not fit op %d's layout", req, req[0])
		}
		if _, err := serveOp(New(Latency{}), req); errors.Is(err, common.ErrCorrupt) {
			t.Errorf("sample %x refused as corrupt: %v", req, err)
		}
		seen[req[0]] = true
	}
	if len(seen) != len(reqLayouts) {
		t.Errorf("samples cover %d ops of %d", len(seen), len(reqLayouts))
	}
	// An op's number is its wire identity: deleting an op must not renumber
	// the ones after it.
	ops := []uint8{sopAllocPage, sopReadPage, sopWritePage, sopPageIDs, sopPutMeta, sopGetMeta,
		sopLogAppendAt, sopLogSync, sopLogEnd, sopLogDurable, sopLogStart, sopLogRead, sopLogCrash,
		sopLogFence, sopLogUnfence, sopLogTruncate, sopLogNodes}
	if want := []uint8{1, 2, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19, 20}; !reflect.DeepEqual(ops, want) {
		t.Errorf("storage op numbers %v, want %v", ops, want)
	}
}
