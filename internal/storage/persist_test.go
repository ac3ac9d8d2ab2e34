package storage

import (
	"bytes"
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
