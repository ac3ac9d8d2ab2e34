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
//	<dir>/pages/<id>.pg    one file per page image (write-through)
//	<dir>/logs/<node>.wal  one append-mostly file per redo stream
//	<dir>/meta/<hexkey>    metadata blobs
//	<dir>/alloc            page-id allocation watermark
//
// Persistence is write-through at durability points: page writes, log syncs
// and metadata puts hit the filesystem before returning. Files are written
// via create-then-rename so a torn process leaves whole files behind (the
// store trusts the OS page cache; it does not fsync — simulation-grade
// durability across process restarts, not power loss).

const (
	allocInterval = 256
	allocSlack    = 2 * allocInterval
)

// persister mirrors a Store's durable state into a directory.
type persister struct {
	dir string

	mu sync.Mutex
	// logPersisted tracks how many durable bytes of each stream are on
	// disk (relative to the stream base at last full rewrite).
	logPersisted map[common.NodeID]common.LSN
	allocMark    uint64
}

// OpenDir opens (or creates) a persistent store rooted at dir.
func OpenDir(dir string, latency Latency) (*Store, error) {
	for _, sub := range []string{"pages", "logs", "meta"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	s := New(latency)
	p := &persister{dir: dir, logPersisted: make(map[common.NodeID]common.LSN)}
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
	// Logs: the whole file is durable content; its base is stored in the
	// first 16 bytes as "base:<16 hex>\n" is overkill — we persist base 0
	// streams only after truncation rewrites, so a sidecar carries the
	// base.
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
		ls.mu.Unlock()
		p.logPersisted[node] = base + common.LSN(len(data))
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

// persistLog appends the newly-durable suffix of node's stream.
func (p *persister) persistLog(node common.NodeID, ls *logStream) {
	ls.mu.Lock()
	base := ls.base
	durableEnd := base + common.LSN(ls.durable)
	var tail []byte
	p.mu.Lock()
	from := p.logPersisted[node]
	if from < base {
		from = base
	}
	if durableEnd > from {
		tail = append([]byte(nil), ls.buf[from-base:ls.durable]...)
	}
	p.mu.Unlock()
	ls.mu.Unlock()
	if len(tail) == 0 {
		return
	}
	f, err := os.OpenFile(p.logPath(node), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	if _, err := f.Write(tail); err == nil {
		p.mu.Lock()
		p.logPersisted[node] = durableEnd
		p.mu.Unlock()
	}
	f.Close()
}

// persistTruncate rewrites node's log file after truncation.
func (p *persister) persistTruncate(node common.NodeID, ls *logStream) {
	ls.mu.Lock()
	base := ls.base
	data := append([]byte(nil), ls.buf[:ls.durable]...)
	ls.mu.Unlock()
	_ = writeAtomic(p.logPath(node), data)
	_ = writeAtomic(p.basePath(node), []byte(strconv.FormatUint(uint64(base), 10)))
	p.mu.Lock()
	p.logPersisted[node] = base + common.LSN(len(data))
	p.mu.Unlock()
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
