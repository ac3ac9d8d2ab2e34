package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"polardbmp/internal/common"
)

func trx(n, t int) common.GTrxID {
	return common.GTrxID{Node: common.NodeID(n), Trx: common.TrxID(t), Slot: uint32(t), Version: 1}
}

func TestInsertVersionOrdering(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	keys := []string{"m", "a", "z", "c", "q"}
	for i, k := range keys {
		p.InsertVersion([]byte(k), Version{Trx: trx(1, i), Value: []byte(k + "v")})
	}
	if len(p.Rows) != 5 {
		t.Fatalf("rows = %d", len(p.Rows))
	}
	for i := 1; i < len(p.Rows); i++ {
		if bytes.Compare(p.Rows[i-1].Key, p.Rows[i].Key) >= 0 {
			t.Fatalf("rows out of order at %d", i)
		}
	}
	r := p.Find([]byte("q"))
	if r == nil || string(r.Head().Value) != "qv" {
		t.Fatalf("find q = %v", r)
	}
}

func TestVersionChain(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	k := []byte("key")
	p.InsertVersion(k, Version{Trx: trx(1, 1), Value: []byte("v1"), CTS: 10})
	p.InsertVersion(k, Version{Trx: trx(2, 2), Value: []byte("v2"), CTS: 20})
	p.InsertVersion(k, Version{Trx: trx(1, 3), Value: []byte("v3")})
	r := p.Find(k)
	if len(r.Versions) != 3 {
		t.Fatalf("chain length = %d", len(r.Versions))
	}
	if string(r.Versions[0].Value) != "v3" || string(r.Versions[2].Value) != "v1" {
		t.Fatal("chain not newest-first")
	}
}

func TestRollbackVersion(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	k := []byte("key")
	p.InsertVersion(k, Version{Trx: trx(1, 1), Value: []byte("v1"), CTS: 10})
	p.InsertVersion(k, Version{Trx: trx(1, 2), Value: []byte("v2")})
	if !p.RollbackVersion(k, trx(1, 2)) {
		t.Fatal("rollback of own head failed")
	}
	if got := string(p.Find(k).Head().Value); got != "v1" {
		t.Fatalf("after rollback head = %q", got)
	}
	// Rolling back a version we don't own is refused.
	if p.RollbackVersion(k, trx(9, 9)) {
		t.Fatal("rollback of foreign head succeeded")
	}
	// Rolling back the only version removes the row.
	if !p.RollbackVersion(k, trx(1, 1)) {
		t.Fatal("rollback of sole version failed")
	}
	if p.Find(k) != nil {
		t.Fatal("row not removed")
	}
	// Rollback of a missing key is a no-op.
	if p.RollbackVersion([]byte("ghost"), trx(1, 1)) {
		t.Fatal("rollback of missing key succeeded")
	}
}

func TestStampCTS(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	who := trx(1, 7)
	p.InsertVersion([]byte("a"), Version{Trx: who})
	p.InsertVersion([]byte("b"), Version{Trx: who})
	p.InsertVersion([]byte("c"), Version{Trx: trx(2, 8)})
	if n := p.StampCTS(who, 55); n != 2 {
		t.Fatalf("stamped %d, want 2", n)
	}
	if p.Find([]byte("a")).Head().CTS != 55 || p.Find([]byte("b")).Head().CTS != 55 {
		t.Fatal("CTS not stamped")
	}
	if p.Find([]byte("c")).Head().CTS != common.CSNInit {
		t.Fatal("foreign version stamped")
	}
	// Already-stamped versions are not re-stamped.
	if n := p.StampCTS(who, 66); n != 0 {
		t.Fatalf("re-stamp count = %d", n)
	}
}

func resolvePlain(v *Version) common.CSN {
	if v.CTS == common.CSNInit {
		return common.CSNMax
	}
	return v.CTS
}

func TestPurge(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	k := []byte("key")
	p.InsertVersion(k, Version{Trx: trx(1, 1), Value: []byte("v1"), CTS: 10})
	p.InsertVersion(k, Version{Trx: trx(1, 2), Value: []byte("v2"), CTS: 20})
	p.InsertVersion(k, Version{Trx: trx(1, 3), Value: []byte("v3"), CTS: 30})
	// minView 20: v2 visible to all snapshots >= 20, so v1 is unreachable.
	if n := p.Purge(20, resolvePlain); n != 1 {
		t.Fatalf("purged %d, want 1", n)
	}
	r := p.Find(k)
	if len(r.Versions) != 2 || string(r.Versions[1].Value) != "v2" {
		t.Fatalf("chain after purge: %v", r.Versions)
	}
	// minView 100: only v3 reachable.
	p.Purge(100, resolvePlain)
	if len(p.Find(k).Versions) != 1 {
		t.Fatal("purge to single version failed")
	}
}

func TestPurgeTombstone(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	k := []byte("key")
	p.InsertVersion(k, Version{Trx: trx(1, 1), Value: []byte("v1"), CTS: 10})
	p.InsertVersion(k, Version{Trx: trx(1, 2), Deleted: true, CTS: 20})
	p.Purge(50, resolvePlain)
	if p.Find(k) != nil {
		t.Fatal("fully-visible tombstone row should be removed")
	}
}

func TestPurgeKeepsActive(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	k := []byte("key")
	p.InsertVersion(k, Version{Trx: trx(1, 1), Value: []byte("v1"), CTS: 10})
	p.InsertVersion(k, Version{Trx: trx(1, 2), Value: []byte("v2")}) // active
	p.Purge(50, resolvePlain)
	r := p.Find(k)
	if len(r.Versions) != 2 {
		t.Fatalf("active chain purged: %d versions left", len(r.Versions))
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := New(7, 3, TypeLeaf)
	p.LLSN = 99
	p.Next = 8
	p.InsertVersion([]byte("alpha"), Version{Trx: trx(1, 1), CTS: 5, Value: []byte("one")})
	p.InsertVersion([]byte("beta"), Version{Trx: trx(2, 2), Deleted: true})
	p.InsertVersion([]byte("alpha"), Version{Trx: trx(1, 3), Value: []byte("two")})
	img, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(img)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != 7 || q.Space != 3 || q.Type != TypeLeaf || q.LLSN != 99 || q.Next != 8 {
		t.Fatalf("header mismatch: %+v", q)
	}
	if len(q.Rows) != 2 {
		t.Fatalf("rows = %d", len(q.Rows))
	}
	r := q.Find([]byte("alpha"))
	if len(r.Versions) != 2 || string(r.Versions[0].Value) != "two" {
		t.Fatalf("alpha chain = %v", r.Versions)
	}
	if !q.Find([]byte("beta")).Head().Deleted {
		t.Fatal("tombstone lost")
	}
}

func TestMarshalChecksum(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	p.InsertVersion([]byte("k"), Version{Trx: trx(1, 1), Value: []byte("v")})
	img, _ := p.Marshal()
	img[len(img)-1] ^= 0xFF
	if _, err := Unmarshal(img); err == nil {
		t.Fatal("corrupted image unmarshaled without error")
	}
}

// randomPage builds the page TestMarshalRoundTripProperty checks: up to 39
// versions over 30 keys, random values, tombstones and stamps.
func randomPage(seed int64, n uint8) *Page {
	rng := rand.New(rand.NewSource(seed))
	p := New(common.PageID(rng.Uint64()%1e6+1), common.SpaceID(rng.Uint32()%100), TypeLeaf)
	p.LLSN = common.LLSN(rng.Uint64() % 1e9)
	for i := 0; i < int(n%40); i++ {
		key := []byte(fmt.Sprintf("key-%d", rng.Intn(30)))
		val := make([]byte, rng.Intn(50))
		rng.Read(val)
		p.InsertVersion(key, Version{
			Trx:     trx(rng.Intn(4), rng.Intn(1000)),
			CTS:     common.CSN(rng.Uint64() % 1000),
			Deleted: rng.Intn(5) == 0,
			Value:   val,
		})
	}
	return p
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		p := randomPage(seed, n)
		img, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := Unmarshal(img)
		if err != nil || len(q.Rows) != len(p.Rows) {
			return false
		}
		for i := range p.Rows {
			if !bytes.Equal(p.Rows[i].Key, q.Rows[i].Key) ||
				len(p.Rows[i].Versions) != len(q.Rows[i].Versions) {
				return false
			}
			for j := range p.Rows[i].Versions {
				a, b := p.Rows[i].Versions[j], q.Rows[i].Versions[j]
				if a.Trx != b.Trx || a.CTS != b.CTS || a.Deleted != b.Deleted ||
					!bytes.Equal(a.Value, b.Value) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeEstimateMatchesMarshal(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	for i := 0; i < 50; i++ {
		p.InsertVersion([]byte(fmt.Sprintf("key-%03d", i)),
			Version{Trx: trx(1, i), Value: bytes.Repeat([]byte("x"), i)})
	}
	img, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if est := p.SizeEstimate(); est != len(img) {
		t.Fatalf("estimate %d != marshaled %d", est, len(img))
	}
}

func TestMarshalOversize(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	p.InsertVersion([]byte("k"), Version{Value: bytes.Repeat([]byte("x"), FrameSize)})
	if _, err := p.Marshal(); err == nil {
		t.Fatal("oversize page marshaled without error")
	}
}

func TestInternalPageRouting(t *testing.T) {
	p := New(1, 1, TypeInternal)
	p.SetChild(nil, 10)         // -inf
	p.SetChild([]byte("m"), 20) // [m, t)
	p.SetChild([]byte("t"), 30) // [t, ∞)
	cases := []struct {
		key   string
		child common.PageID
	}{
		{"", 10}, {"a", 10}, {"lzz", 10}, {"m", 20}, {"p", 20}, {"t", 30}, {"zzz", 30},
	}
	for _, c := range cases {
		if got := p.ChildFor([]byte(c.key)); got != c.child {
			t.Errorf("ChildFor(%q) = %d, want %d", c.key, got, c.child)
		}
	}
	// Replace a child pointer.
	p.SetChild([]byte("m"), 25)
	if p.ChildFor([]byte("p")) != 25 {
		t.Fatal("SetChild replace failed")
	}
	if !p.DeleteEntry([]byte("t")) {
		t.Fatal("DeleteEntry failed")
	}
	if p.ChildFor([]byte("zzz")) != 25 {
		t.Fatal("routing after delete wrong")
	}
}

func TestSearchProperty(t *testing.T) {
	p := New(1, 1, TypeLeaf)
	var keys []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%04d", rand.Intn(500))
		p.InsertVersion([]byte(k), Version{Trx: trx(1, i)})
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if p.Find([]byte(k)) == nil {
			t.Fatalf("inserted key %q not found", k)
		}
	}
	// Rows must be strictly sorted and deduplicated.
	for i := 1; i < len(p.Rows); i++ {
		if bytes.Compare(p.Rows[i-1].Key, p.Rows[i].Key) >= 0 {
			t.Fatal("rows not strictly sorted")
		}
	}
}

// fullLeaf builds a leaf of n rows shaped like the benchmark's: ten-byte
// keys, 100-byte values, one stamped version each.
func fullLeaf(n int) *Page {
	p := New(3, 1, TypeLeaf)
	for i := 0; i < n; i++ {
		p.InsertVersion([]byte(fmt.Sprintf("k%09d", i)),
			Version{Trx: trx(1, i), CTS: common.CSN(i + 1), Value: bytes.Repeat([]byte{byte(i)}, 100)})
	}
	return p
}

// seal stamps b's CRC32C so the decoder's checks past the checksum run.
func seal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], crcTable))
	return b
}

// FuzzPageUnmarshal seals every input with a valid checksum so the fuzzer
// reaches the parser: no input may panic it, and an image it accepts must
// re-marshal to the identical bytes.
func FuzzPageUnmarshal(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		img, err := randomPage(seed, uint8(seed*5)).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 {
			return
		}
		b = seal(append([]byte(nil), b...))
		p, err := Unmarshal(b)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil || !bytes.Equal(out, b) {
			t.Fatalf("decoded image re-marshals to %x, %v; want %x", out, err, b)
		}
	})
}

// TestUnmarshalHugeRowCount: a sealed 64-byte image claiming 2^32-1 rows is
// refused as short before anything sized by the claim is allocated.
func TestUnmarshalHugeRowCount(t *testing.T) {
	b := make([]byte, 64)
	binary.LittleEndian.PutUint32(b[headerSize-4:], math.MaxUint32)
	seal(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(b)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, common.ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("refusing the image allocated %d bytes, want < 1 MiB", d)
	}
}

// TestUnmarshalAllocs: a decode is the page, one copy of the image, one row
// array and one version array, whatever the row count.
func TestUnmarshalAllocs(t *testing.T) {
	for _, n := range []int{1, 44} {
		img, err := fullLeaf(n).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Unmarshal(img); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Fatalf("%d-row leaf: %.0f allocs per decode, want <= 4", n, allocs)
		}
	}
}

// TestDecodedPageOwnsItsBytes pins what the shared arena must not change: a
// decoded page is independent of its source buffer, an edit to one row never
// reaches another, and edits marshal exactly as on a page built from scratch.
func TestDecodedPageOwnsItsBytes(t *testing.T) {
	build := func() *Page {
		p := fullLeaf(6)
		p.InsertVersion([]byte("k000000002"), Version{Trx: trx(2, 9), Value: []byte("newer")})
		return p
	}
	src, err := build().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), src...)
	p, err := Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = 0xEE
	}
	if out, err := p.Marshal(); err != nil || !bytes.Equal(out, orig) {
		t.Fatalf("overwriting the source buffer changed the decoded page (%v)", err)
	}

	rowImage := func(r Row) []byte {
		q := New(0, 0, TypeLeaf)
		q.Rows = []Row{r}
		img, _ := q.Marshal()
		return img
	}
	// Each edit names the one row it may change.
	edits := []struct {
		key  string
		edit func(p *Page)
	}{
		{"k000000001", func(p *Page) {
			p.InsertVersion([]byte("k000000001"), Version{Trx: trx(3, 1), CTS: 100, Value: []byte("x")})
		}},
		{"k000000002", func(p *Page) { p.RollbackVersion([]byte("k000000002"), trx(2, 9)) }},
		{"k000000001", func(p *Page) { p.Purge(200, resolvePlain) }},
		{"k000000005", func(p *Page) { p.SetChild([]byte("k000000005"), 77) }},
		{"k000000003", func(p *Page) {
			// Long enough to reach the next row's bytes in the image.
			r := p.Find([]byte("k000000003"))
			r.Key = append(r.Key, bytes.Repeat([]byte("z"), 200)...)
			r.Head().Value = append(r.Head().Value, bytes.Repeat([]byte("t"), 200)...)
			r.Versions = append(r.Versions, Version{Trx: trx(4, 4), Value: []byte("oldest")})
		}},
	}
	for _, e := range edits {
		before := make(map[string][]byte)
		for _, r := range p.Rows {
			before[string(r.Key)] = rowImage(r)
		}
		e.edit(p)
		for k, img := range before {
			if k == e.key {
				continue
			}
			r := p.Find([]byte(k))
			if r == nil || !bytes.Equal(rowImage(*r), img) {
				t.Fatalf("editing row %s changed row %s", e.key, k)
			}
		}
	}

	fresh := build()
	for _, e := range edits {
		e.edit(fresh)
	}
	got, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("edits on the decoded page marshal differently from the same edits on a fresh page")
	}
}
