package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"polardbmp/internal/common"
	"polardbmp/internal/storage"
)

func g(n, t int) common.GTrxID {
	return common.GTrxID{Node: common.NodeID(n), Trx: common.TrxID(t), Slot: uint32(t), Version: 1}
}

// sampleRecords is one record of each type.
func sampleRecords() []*Record {
	return []*Record{
		{Type: RecInsert, Node: 1, LLSN: 10, Trx: g(1, 5), Page: 7, Space: 2,
			Key: []byte("k"), Value: []byte("v")},
		{Type: RecInsert, Node: 2, LLSN: 11, Trx: g(2, 6), Page: 8, Space: 2,
			Key: []byte("k2"), Deleted: true},
		{Type: RecPageImage, Node: 1, LLSN: 12, Trx: g(1, 5), Page: 9, Space: 3,
			Image: []byte{1, 2, 3}},
		{Type: RecCommit, Node: 1, LLSN: 13, Trx: g(1, 5), CTS: 99},
		{Type: RecAbort, Node: 2, LLSN: 14, Trx: g(2, 6)},
		{Type: RecRollback, Node: 2, LLSN: 15, Trx: g(2, 6), Page: 8, Space: 2,
			Key: []byte("k2")},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	for _, r := range recs {
		buf = r.Marshal(buf)
	}
	for i, want := range recs {
		got, n, err := unmarshalOne(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		buf = buf[n:]
		if got.Type != want.Type || got.Node != want.Node || got.LLSN != want.LLSN ||
			got.Trx != want.Trx || got.Page != want.Page || got.Space != want.Space ||
			got.CTS != want.CTS || got.Deleted != want.Deleted ||
			!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) ||
			!bytes.Equal(got.Image, want.Image) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d leftover bytes", len(buf))
	}
}

// FuzzWALRecordDecode: no input may panic the record decoder, and a record
// it accepts must re-marshal to exactly the bytes it consumed.
func FuzzWALRecordDecode(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(r.Marshal(nil))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, n, err := unmarshalOne(b)
		if err != nil {
			return
		}
		if out := r.Marshal(nil); !bytes.Equal(out, b[:n]) {
			t.Fatalf("decoded record re-marshals to %x; want %x", out, b[:n])
		}
	})
}

func TestRecordIncomplete(t *testing.T) {
	r := &Record{Type: RecCommit, Node: 1, LLSN: 1, Trx: g(1, 1), CTS: 5}
	buf := r.Marshal(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := unmarshalOne(buf[:cut]); err != errIncomplete {
			// Short prefixes with a plausible length header may decode
			// as corrupt, never as success.
			if err == nil {
				t.Fatalf("cut %d decoded successfully", cut)
			}
		}
	}
}

func TestLLSNCounter(t *testing.T) {
	var c LLSNCounter
	if c.Next() != 1 || c.Next() != 2 {
		t.Fatal("counter not incrementing from zero")
	}
	c.Observe(100)
	if got := c.Next(); got != 101 {
		t.Fatalf("after observe(100): next = %d", got)
	}
	c.Observe(50) // lower observation must not regress
	if got := c.Next(); got != 102 {
		t.Fatalf("after low observe: next = %d", got)
	}
	if c.Current() != 102 {
		t.Fatalf("current = %d", c.Current())
	}
}

func TestLLSNCounterConcurrent(t *testing.T) {
	var c LLSNCounter
	var mu sync.Mutex
	seen := map[common.LLSN]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l := c.Next()
				mu.Lock()
				if seen[l] {
					t.Errorf("duplicate LLSN %d", l)
				}
				seen[l] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestWriterReader(t *testing.T) {
	store := storage.New(storage.Latency{})
	w := NewWriter(store, 1)
	var end common.LSN
	for i := 0; i < 100; i++ {
		end = w.Append(&Record{Type: RecInsert, Node: 1, LLSN: common.LLSN(i + 1),
			Trx: g(1, i), Page: common.PageID(i % 7), Space: 1,
			Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")})
	}
	w.Sync(end)
	if w.Durable() < end {
		t.Fatalf("durable %d < %d", w.Durable(), end)
	}
	r := NewStreamReader(store, 1, 0, 64) // tiny chunks to exercise refill
	for i := 0; i < 100; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			t.Fatalf("stream ended at %d", i)
		}
		if rec.LLSN != common.LLSN(i+1) {
			t.Fatalf("record %d has LLSN %d", i, rec.LLSN)
		}
	}
	rec, err := r.Next()
	if err != nil || rec != nil {
		t.Fatalf("expected clean EOF, got %v / %v", rec, err)
	}
}

func TestWriterGroupCommit(t *testing.T) {
	store := storage.New(storage.Latency{})
	w := NewWriter(store, 1)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			end := w.Append(&Record{Type: RecCommit, Node: 1, LLSN: common.LLSN(i + 1),
				Trx: g(1, i), CTS: common.CSN(i + 2)})
			w.Sync(end)
			if w.Durable() < end {
				t.Errorf("sync returned before durable")
			}
		}(i)
	}
	wg.Wait()
	if syncs := store.Stats().LogSyncs.Load(); syncs > 32 {
		t.Fatalf("group commit issued %d syncs for 32 commits", syncs)
	}
}

// TestAppendDroppedNeverDurable: a record dropped by a closed or fenced
// writer must come back with an end LSN the durable frontier never reaches,
// so a committer gating on Durable() < end refuses the commit even when
// everything before the record was already synced.
func TestAppendDroppedNeverDurable(t *testing.T) {
	commit := &Record{Type: RecCommit, Node: 1, LLSN: 2, Trx: g(1, 1), CTS: 5}
	for name, kill := range map[string]func(*storage.Store, *Writer){
		"closed": func(_ *storage.Store, w *Writer) { w.Close() },
		"fenced": func(s *storage.Store, _ *Writer) { s.FenceLog(1) },
	} {
		t.Run(name, func(t *testing.T) {
			store := storage.New(storage.Latency{})
			w := NewWriter(store, 1)
			w.Sync(w.Append(&Record{Type: RecInsert, Node: 1, LLSN: 1, Trx: g(1, 1), Page: 1, Space: 1, Key: []byte("k")}))
			durable := w.Durable()
			kill(store, w)
			end := w.Append(commit)
			w.Sync(end)
			if end <= durable || w.Durable() >= end {
				t.Fatalf("dropped append returned end %d with durable %d (before the drop: %d); it must stay out of reach", end, w.Durable(), durable)
			}
			if w.End() != durable {
				t.Fatalf("dropped append advanced the stream end to %d, want %d", w.End(), durable)
			}
		})
	}
}

// TestMergeReaderOrder builds two streams whose records interleave LLSNs and
// checks the merge respects global LLSN order (stronger than the per-page
// requirement).
func TestMergeReaderOrder(t *testing.T) {
	store := storage.New(storage.Latency{})
	w1 := NewWriter(store, 1)
	w2 := NewWriter(store, 2)
	// Node 1 gets odd LLSNs, node 2 even: strictly increasing per stream.
	for i := 1; i <= 99; i += 2 {
		w1.Sync(w1.Append(&Record{Type: RecCommit, Node: 1, LLSN: common.LLSN(i), Trx: g(1, i), CTS: 1}))
	}
	for i := 2; i <= 100; i += 2 {
		w2.Sync(w2.Append(&Record{Type: RecCommit, Node: 2, LLSN: common.LLSN(i), Trx: g(2, i), CTS: 1}))
	}
	m := NewMergeReader(
		NewStreamReader(store, 1, 0, 128),
		NewStreamReader(store, 2, 0, 128),
	)
	var last common.LLSN
	count := 0
	for {
		rec, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		if rec.LLSN <= last {
			t.Fatalf("merge emitted LLSN %d after %d", rec.LLSN, last)
		}
		last = rec.LLSN
		count++
	}
	if count != 100 {
		t.Fatalf("merged %d records, want 100", count)
	}
}

// TestMergeReaderPerPageOrder simulates the real invariant: per-page LLSN
// order across random streams, with per-stream monotone LLSNs.
func TestMergeReaderPerPageOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		store := storage.New(storage.Latency{})
		nStreams := 2 + rng.Intn(3)
		writers := make([]*Writer, nStreams)
		for i := range writers {
			writers[i] = NewWriter(store, common.NodeID(i+1))
		}
		// Simulate pages bouncing between nodes: a global LLSN counter
		// per page; each write goes to a random stream with an LLSN
		// larger than both the page's last and the stream's last.
		pageLL := map[common.PageID]common.LLSN{}
		streamLL := make([]common.LLSN, nStreams)
		type key struct {
			page common.PageID
			llsn common.LLSN
		}
		total := 0
		for i := 0; i < 300; i++ {
			pg := common.PageID(rng.Intn(10) + 1)
			s := rng.Intn(nStreams)
			ll := streamLL[s]
			if pageLL[pg] > ll {
				ll = pageLL[pg]
			}
			ll++
			streamLL[s] = ll
			pageLL[pg] = ll
			w := writers[s]
			w.Sync(w.Append(&Record{Type: RecInsert, Node: common.NodeID(s + 1),
				LLSN: ll, Trx: g(s+1, i), Page: pg, Space: 1, Key: []byte("k")}))
			total++
		}
		readers := make([]*StreamReader, nStreams)
		for i := range readers {
			readers[i] = NewStreamReader(store, common.NodeID(i+1), 0, 256)
		}
		m := NewMergeReader(readers...)
		lastPerPage := map[common.PageID]common.LLSN{}
		count := 0
		for {
			rec, err := m.Next()
			if err != nil {
				return false
			}
			if rec == nil {
				break
			}
			if rec.LLSN <= lastPerPage[rec.Page] {
				return false
			}
			lastPerPage[rec.Page] = rec.LLSN
			count++
		}
		return count == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeReaderEmptyStream(t *testing.T) {
	store := storage.New(storage.Latency{})
	w := NewWriter(store, 1)
	w.Sync(w.Append(&Record{Type: RecCommit, Node: 1, LLSN: 1, Trx: g(1, 1), CTS: 1}))
	m := NewMergeReader(
		NewStreamReader(store, 1, 0, 0),
		NewStreamReader(store, 2, 0, 0), // never written
	)
	rec, err := m.Next()
	if err != nil || rec == nil || rec.LLSN != 1 {
		t.Fatalf("rec=%v err=%v", rec, err)
	}
	rec, err = m.Next()
	if err != nil || rec != nil {
		t.Fatalf("expected EOF, got %v / %v", rec, err)
	}
}

func TestStreamReaderFromOffset(t *testing.T) {
	store := storage.New(storage.Latency{})
	w := NewWriter(store, 1)
	r1 := &Record{Type: RecCommit, Node: 1, LLSN: 1, Trx: g(1, 1), CTS: 1}
	mid := w.Append(r1)
	end := w.Append(&Record{Type: RecCommit, Node: 1, LLSN: 2, Trx: g(1, 2), CTS: 2})
	w.Sync(end)
	r := NewStreamReader(store, 1, mid, 0)
	rec, err := r.Next()
	if err != nil || rec == nil || rec.LLSN != 2 {
		t.Fatalf("rec=%+v err=%v", rec, err)
	}
	if rec.LSN != mid {
		t.Fatalf("rec.LSN = %d, want %d", rec.LSN, mid)
	}
}

// TestRecordRoundTripProperty fuzzes record encode/decode across all types.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(typ uint8, node uint16, llsn uint64, trx uint64, pg uint64, space uint32,
		key, value []byte, deleted bool, cts uint64) bool {
		r := &Record{
			Type:    RecordType(typ%5 + 1),
			Node:    common.NodeID(node),
			LLSN:    common.LLSN(llsn),
			Trx:     common.GTrxID{Node: common.NodeID(node), Trx: common.TrxID(trx), Slot: uint32(trx), Version: uint32(llsn)},
			Page:    common.PageID(pg),
			Space:   common.SpaceID(space),
			Key:     key,
			Value:   value,
			Deleted: deleted,
			Image:   value,
			CTS:     common.CSN(cts),
		}
		buf := r.Marshal(nil)
		got, n, err := unmarshalOne(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if got.Type != r.Type || got.Node != r.Node || got.LLSN != r.LLSN || got.Trx != r.Trx {
			return false
		}
		switch r.Type {
		case RecInsert:
			return got.Page == r.Page && got.Space == r.Space && got.Deleted == r.Deleted &&
				bytes.Equal(got.Key, r.Key) && bytes.Equal(got.Value, r.Value)
		case RecPageImage:
			return got.Page == r.Page && bytes.Equal(got.Image, r.Image)
		case RecCommit:
			return got.CTS == r.CTS
		case RecRollback:
			return got.Page == r.Page && bytes.Equal(got.Key, r.Key)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
