package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestPersistPagesLogsMeta(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	id := s.AllocPage()
	if err := s.WritePage(id, []byte("page-image")); err != nil {
		t.Fatal(err)
	}
	s.LogAppend(1, []byte("rec-one"))
	s.LogSync(1)
	s.LogAppend(1, []byte("volatile")) // never synced: must not persist
	s.PutMeta("spacedir", []byte("meta-blob"))

	// Re-open from disk.
	s2, err := OpenDir(dir, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := s2.ReadPage(id)
	if err != nil || !bytes.Equal(img, []byte("page-image")) {
		t.Fatalf("page after reopen: %q, %v", img, err)
	}
	buf := make([]byte, 64)
	n, err := s2.LogRead(1, 0, buf)
	if err != nil || string(buf[:n]) != "rec-one" {
		t.Fatalf("log after reopen: %q, %v", buf[:n], err)
	}
	if got := s2.GetMeta("spacedir"); string(got) != "meta-blob" {
		t.Fatalf("meta after reopen: %q", got)
	}
	// Allocation never reuses ids from the previous incarnation.
	if next := s2.AllocPage(); next <= id {
		t.Fatalf("alloc after reopen = %d, must exceed %d", next, id)
	}
}

func TestPersistTruncateSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	s.LogAppend(2, []byte("0123456789"))
	s.LogSync(2)
	s.LogTruncate(2, 4)

	s2, err := OpenDir(dir, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	if base := s2.LogStartLSN(2); base != 4 {
		t.Fatalf("base after reopen = %d", base)
	}
	buf := make([]byte, 16)
	n, err := s2.LogRead(2, 4, buf)
	if err != nil || string(buf[:n]) != "456789" {
		t.Fatalf("post-truncate read after reopen: %q, %v", buf[:n], err)
	}
	// Appends continue at the right LSN.
	if lsn := s2.LogAppend(2, []byte("ab")); lsn != 10 {
		t.Fatalf("append lsn after reopen = %d", lsn)
	}
}

// Concurrent syncs of one stream each append the durable suffix they found
// unpersisted; the file must end up holding every durable byte exactly once,
// in LSN order, or a reopen replays a log whose offsets are not its LSNs.
func TestPersistConcurrentSyncsWriteOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.LogAppend(1, []byte(fmt.Sprintf("<%d:%d>", w, i)))
				s.LogSync(1)
			}
		}(w)
	}
	wg.Wait()
	want := make([]byte, s.LogDurableLSN(1))
	if n, err := s.LogRead(1, 0, want); err != nil || n != len(want) {
		t.Fatalf("LogRead = %d, %v; want %d bytes", n, err, len(want))
	}
	got, err := os.ReadFile(filepath.Join(dir, "logs", "1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("1.wal holds %d bytes, the durable stream %d: the file is not the stream", len(got), len(want))
	}
}

// A sync after a truncation appends to the rewritten file, not to the one the
// rename replaced: a reopen sees exactly the retained bytes at the right base.
func TestPersistTruncateThenSync(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	s.LogAppend(3, []byte("0123456789"))
	s.LogSync(3)
	s.LogTruncate(3, 6)
	s.LogAppend(3, []byte("abc"))
	s.LogSync(3)

	s2, err := OpenDir(dir, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	if base, end := s2.LogStartLSN(3), s2.LogDurableLSN(3); base != 6 || end != 13 {
		t.Fatalf("after reopen: base %d, durable %d; want 6, 13", base, end)
	}
	buf := make([]byte, 16)
	n, err := s2.LogRead(3, 6, buf)
	if err != nil || string(buf[:n]) != "6789abc" {
		t.Fatalf("retained log after reopen: %q, %v; want \"6789abc\"", buf[:n], err)
	}
}
