package storage

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"polardbmp/internal/common"
)

// Directory layout for a persistent store:
//
//	<dir>/pages/<id>.pg     one file per page image (write-through)
//	<dir>/logs/<node>.wal   one append-mostly file per redo stream
//	<dir>/logs/<node>.base  the LSN of the .wal file's first byte, once truncated
//	<dir>/meta/<hexkey>     metadata blobs
//	<dir>/alloc             page-id allocation watermark
//
// Persistence is write-through at durability points: page writes, log syncs
// and metadata puts hit the filesystem before returning. A log sync appends
// the stream's newly durable bytes through one O_APPEND handle the stream
// keeps open; every other file, a truncated log included, is written via
// create-then-rename so a torn process leaves whole files behind (the store
// trusts the OS page cache; it does not fsync — simulation-grade durability
// across process restarts, not power loss).

const (
	allocInterval = 256
	allocSlack    = 2 * allocInterval
)

// persister mirrors a Store's durable state into a directory.
type persister struct {
	dir string

	mu        sync.Mutex
	allocMark uint64
}

// logFile is one stream's .wal file. Its lock is taken before the stream's
// and held across the write, so concurrent syncs of the stream land each
// durable byte on disk exactly once, in order.
type logFile struct {
	mu        sync.Mutex
	f         *os.File   // O_APPEND handle, opened by the first sync after open or truncation
	persisted common.LSN // the stream LSN up to which the file holds its bytes
}

// OpenDir opens (or creates) a persistent store rooted at dir.
func OpenDir(dir string, latency Latency) (*Store, error) {
	for _, sub := range []string{"pages", "logs", "meta"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	s := New(latency)
	p := &persister{dir: dir}
	if err := p.load(s); err != nil {
		return nil, err
	}
	s.persist = p
	return s, nil
}

// load reads the directory into the in-memory store.
func (p *persister) load(s *Store) error {
	// Pages.
	entries, err := os.ReadDir(filepath.Join(p.dir, "pages"))
	if err != nil {
		return err
	}
	maxPage := uint64(0)
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".pg")
		id, err := strconv.ParseUint(name, 10, 64)
		if err != nil {
			continue
		}
		img, err := os.ReadFile(filepath.Join(p.dir, "pages", e.Name()))
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.pages[common.PageID(id)] = img
		s.mu.Unlock()
		if id > maxPage {
			maxPage = id
		}
	}
	// Logs: the whole .wal file is durable content. A stream never
	// truncated starts at LSN 0; a truncation rewrite records the new start
	// in the .base sidecar.
	lentries, err := os.ReadDir(filepath.Join(p.dir, "logs"))
	if err != nil {
		return err
	}
	for _, e := range lentries {
		if strings.HasSuffix(e.Name(), ".base") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".wal")
		id, err := strconv.ParseUint(name, 10, 16)
		if err != nil {
			continue
		}
		node := common.NodeID(id)
		data, err := os.ReadFile(filepath.Join(p.dir, "logs", e.Name()))
		if err != nil {
			return err
		}
		base := common.LSN(0)
		if raw, err := os.ReadFile(p.basePath(node)); err == nil {
			if v, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64); err == nil {
				base = common.LSN(v)
			}
		}
		ls := s.stream(node)
		ls.mu.Lock()
		ls.base = base
		ls.buf = data
		ls.durable = len(data)
		ls.file.persisted = base + common.LSN(len(data))
		ls.mu.Unlock()
	}
	// Metadata.
	mentries, err := os.ReadDir(filepath.Join(p.dir, "meta"))
	if err != nil {
		return err
	}
	for _, e := range mentries {
		key, err := hex.DecodeString(e.Name())
		if err != nil {
			continue
		}
		val, err := os.ReadFile(filepath.Join(p.dir, "meta", e.Name()))
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.meta[string(key)] = val
		s.mu.Unlock()
	}
	// Allocation watermark.
	next := maxPage + 1
	if raw, err := os.ReadFile(filepath.Join(p.dir, "alloc")); err == nil {
		if v, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64); err == nil && v > next {
			next = v
		}
	}
	s.mu.Lock()
	if next > s.nextPage {
		s.nextPage = next
	}
	s.mu.Unlock()
	p.allocMark = next
	return nil
}

func (p *persister) pagePath(id common.PageID) string {
	return filepath.Join(p.dir, "pages", fmt.Sprintf("%d.pg", id))
}

func (p *persister) logPath(node common.NodeID) string {
	return filepath.Join(p.dir, "logs", fmt.Sprintf("%d.wal", node))
}

func (p *persister) basePath(node common.NodeID) string {
	return filepath.Join(p.dir, "logs", fmt.Sprintf("%d.base", node))
}

// writeAtomic writes data to path via a temp file + rename.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (p *persister) persistPage(id common.PageID, img []byte) {
	_ = writeAtomic(p.pagePath(id), img)
}

func (p *persister) persistMeta(key string, val []byte) {
	_ = writeAtomic(filepath.Join(p.dir, "meta", hex.EncodeToString([]byte(key))), val)
}

// persistLog appends the newly-durable suffix of node's stream. Bytes below
// the durable frontier never change in place, so the slice taken under the
// stream lock may be written after releasing it.
func (p *persister) persistLog(node common.NodeID, ls *logStream) {
	lf := &ls.file
	lf.mu.Lock()
	defer lf.mu.Unlock()
	ls.mu.Lock()
	end := ls.base + common.LSN(ls.durable)
	from := max(lf.persisted, ls.base)
	var tail []byte
	if end > from {
		tail = ls.buf[from-ls.base : ls.durable]
	}
	ls.mu.Unlock()
	if len(tail) == 0 {
		return
	}
	if lf.f == nil {
		f, err := os.OpenFile(p.logPath(node), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return
		}
		lf.f = f
	}
	if _, err := lf.f.Write(tail); err == nil {
		lf.persisted = end
	}
}

// persistTruncate rewrites node's log file after truncation. The append
// handle is closed first: it would otherwise write into the file the rename
// replaces.
func (p *persister) persistTruncate(node common.NodeID, ls *logStream) {
	lf := &ls.file
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if lf.f != nil {
		_ = lf.f.Close() // nothing is buffered; a failed close loses no write
		lf.f = nil
	}
	ls.mu.Lock()
	base := ls.base
	data := ls.buf[:ls.durable]
	ls.mu.Unlock()
	_ = writeAtomic(p.logPath(node), data)
	_ = writeAtomic(p.basePath(node), []byte(strconv.FormatUint(uint64(base), 10)))
	lf.persisted = base + common.LSN(len(data))
}

// persistAlloc advances the on-disk allocation watermark when needed.
func (p *persister) persistAlloc(next uint64) {
	p.mu.Lock()
	need := next >= p.allocMark
	if need {
		p.allocMark = next + allocSlack
	}
	mark := p.allocMark
	p.mu.Unlock()
	if need {
		_ = writeAtomic(filepath.Join(p.dir, "alloc"), []byte(strconv.FormatUint(mark, 10)))
	}
}
