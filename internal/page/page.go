// Package page implements the structured data page shared by the buffer
// pools, the B-tree, the redo log and the storage layer.
//
// Per §4.1 each row carries two extra metadata fields — the global id of the
// transaction that last modified it (g_trx_id) and that transaction's commit
// timestamp (CTS), stamped lazily at commit time. The row's g_trx_id doubles
// as the RLock indicator (§4.3.2). Old row versions are kept in an in-page
// chain (DESIGN.md substitution S3) so that any node holding the page under
// an S PLock can reconstruct a visible version, exactly as the paper's
// undo-based reconstruction does.
//
// The page header carries the LLSN of the last redo record applied to the
// page (§4.4), which both orders cross-node redo and makes replay idempotent
// (apply record iff record.LLSN > page.LLSN).
package page

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"polardbmp/internal/common"
)

// FrameSize is the buffer-pool frame size; a marshaled page must fit in it.
const FrameSize = 16 * 1024

// Type discriminates page roles.
type Type uint8

const (
	// TypeLeaf holds user rows (or index entries for secondary indexes).
	TypeLeaf Type = iota + 1
	// TypeInternal holds separator-key → child-page routing entries.
	TypeInternal
)

// Version is one version of a row. The newest version is Versions[0].
type Version struct {
	// Trx is the global id of the transaction that wrote this version.
	// For the newest version of a row it doubles as the row lock field:
	// if the transaction is still active, the row is X-locked (§4.3.2).
	Trx common.GTrxID
	// CTS is the writer's commit timestamp, or CSNInit if it was not
	// stamped (writer still active, or the row left the buffer before
	// commit); readers then resolve it through the TIT (Algorithm 1).
	CTS common.CSN
	// Deleted marks a tombstone version.
	Deleted bool
	// Value is the row payload (nil for tombstones).
	Value []byte
}

// Row is a keyed row with its version chain, newest first.
type Row struct {
	Key      []byte
	Versions []Version
}

// Head returns the newest version. Rows always have at least one version.
func (r *Row) Head() *Version { return &r.Versions[0] }

// Page is the in-memory form of a data page. Synchronization (PLocks across
// nodes, latches within a node) is layered above this package.
type Page struct {
	ID    common.PageID
	Space common.SpaceID
	Type  Type
	// Level is the page's height in the B-tree: 0 for leaves, 1 for
	// internal pages whose children are leaves, and so on. Descent uses
	// it to acquire the leaf-level PLock in the right mode on first try.
	Level uint8
	// LLSN of the last redo record applied to this page (§4.4).
	LLSN common.LLSN
	// Next is the right sibling for leaf pages (leaf chain for scans).
	Next common.PageID
	Rows []Row
}

// New creates an empty page.
func New(id common.PageID, space common.SpaceID, t Type) *Page {
	return &Page{ID: id, Space: space, Type: t}
}

// Search returns the index of key and whether it was found; if not found,
// the index is the insertion point.
func (p *Page) Search(key []byte) (int, bool) {
	i := sort.Search(len(p.Rows), func(i int) bool {
		return bytes.Compare(p.Rows[i].Key, key) >= 0
	})
	if i < len(p.Rows) && bytes.Equal(p.Rows[i].Key, key) {
		return i, true
	}
	return i, false
}

// Find returns the row for key, or nil.
func (p *Page) Find(key []byte) *Row {
	if i, ok := p.Search(key); ok {
		return &p.Rows[i]
	}
	return nil
}

// InsertVersion prepends a new version for key, creating the row if absent.
// It is the single mutation primitive used by insert, update and delete
// (delete writes a tombstone version). The caller owns redo logging and
// LLSN stamping.
func (p *Page) InsertVersion(key []byte, v Version) {
	i, ok := p.Search(key)
	if ok {
		r := &p.Rows[i]
		r.Versions = append([]Version{v}, r.Versions...)
		return
	}
	row := Row{Key: append([]byte(nil), key...), Versions: []Version{v}}
	p.Rows = append(p.Rows, Row{})
	copy(p.Rows[i+1:], p.Rows[i:])
	p.Rows[i] = row
}

// RollbackVersion removes the newest version of key if it was written by
// trx, exposing the previous version; if no previous version remains the row
// is removed entirely. It reports whether a version was rolled back.
func (p *Page) RollbackVersion(key []byte, trx common.GTrxID) bool {
	i, ok := p.Search(key)
	if !ok {
		return false
	}
	r := &p.Rows[i]
	if r.Head().Trx != trx {
		return false
	}
	if len(r.Versions) == 1 {
		p.Rows = append(p.Rows[:i], p.Rows[i+1:]...)
		return true
	}
	r.Versions = r.Versions[1:]
	return true
}

// StampCTS fills the CTS of every version on the page written by trx that
// is still unstamped. It returns the number of versions stamped. This is the
// commit-time fast path of §4.1: rows still in the buffer get their CTS
// filled so readers skip the TIT lookup.
func (p *Page) StampCTS(trx common.GTrxID, cts common.CSN) int {
	n := 0
	for ri := range p.Rows {
		for vi := range p.Rows[ri].Versions {
			v := &p.Rows[ri].Versions[vi]
			if v.Trx == trx && v.CTS == common.CSNInit {
				v.CTS = cts
				n++
			}
		}
	}
	return n
}

// Purge trims version chains: every version strictly older than the first
// version committed at or below minView is unreachable by any active or
// future snapshot and is dropped. Rows whose only remaining version is a
// purgeable tombstone are removed. resolve maps a version to its effective
// CTS (CSNMax while the writer is active).
func (p *Page) Purge(minView common.CSN, resolve func(*Version) common.CSN) int {
	removed := 0
	out := p.Rows[:0]
	for ri := range p.Rows {
		r := &p.Rows[ri]
		keep := len(r.Versions)
		for vi := range r.Versions {
			if resolve(&r.Versions[vi]) <= minView {
				// Versions[vi] is visible to every snapshot;
				// everything older is unreachable.
				keep = vi + 1
				break
			}
		}
		removed += len(r.Versions) - keep
		r.Versions = r.Versions[:keep]
		// Drop the row if it has collapsed to a single tombstone that
		// everyone can see.
		if len(r.Versions) == 1 && r.Versions[0].Deleted &&
			resolve(&r.Versions[0]) <= minView {
			removed++
			continue
		}
		out = append(out, *r)
	}
	p.Rows = out
	return removed
}

// --- internal (routing) pages -----------------------------------------

// ChildEntry reads an internal-page entry's child pointer.
func ChildEntry(v *Version) common.PageID {
	if len(v.Value) < 8 {
		return common.InvalidPageID
	}
	return common.PageID(binary.LittleEndian.Uint64(v.Value))
}

// ChildValue encodes a child pointer as an entry value.
func ChildValue(id common.PageID) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(id))
}

// ChildFor returns the child page that owns key on an internal page: the
// entry with the greatest key <= key. Internal pages always carry a first
// entry with an empty key (-infinity).
func (p *Page) ChildFor(key []byte) common.PageID {
	i := sort.Search(len(p.Rows), func(i int) bool {
		return bytes.Compare(p.Rows[i].Key, key) > 0
	})
	if i == 0 {
		return common.InvalidPageID
	}
	return ChildEntry(p.Rows[i-1].Head())
}

// SetChild inserts or replaces the routing entry key→child.
func (p *Page) SetChild(key []byte, child common.PageID) {
	v := Version{Value: ChildValue(child)}
	if i, ok := p.Search(key); ok {
		p.Rows[i].Versions = []Version{v}
		return
	}
	p.InsertVersion(key, v)
}

// DeleteEntry removes the routing entry for key. It reports whether the
// entry existed.
func (p *Page) DeleteEntry(key []byte) bool {
	i, ok := p.Search(key)
	if !ok {
		return false
	}
	p.Rows = append(p.Rows[:i], p.Rows[i+1:]...)
	return true
}

// --- size accounting ----------------------------------------------------

const (
	headerSize  = 4 + 8 + 4 + 1 + 1 + 8 + 8 + 4 // crc, id, space, type, level, llsn, next, nrows
	rowOverhead = 4 + 4                         // key len, nversions
	verOverhead = common.GTrxIDSize + 8 + 1 + 4
	// SplitThreshold is the marshaled size beyond which the B-tree splits
	// a page; it leaves headroom under FrameSize for version-chain growth.
	SplitThreshold = FrameSize * 3 / 4
)

// SizeEstimate returns the marshaled size of the page in bytes.
func (p *Page) SizeEstimate() int {
	n := headerSize
	for i := range p.Rows {
		n += rowOverhead + len(p.Rows[i].Key)
		for j := range p.Rows[i].Versions {
			n += verOverhead + len(p.Rows[i].Versions[j].Value)
		}
	}
	return n
}

// --- marshal / unmarshal --------------------------------------------------

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Marshal serializes the page (checksummed). It returns an error if the
// page exceeds FrameSize, which indicates a missed split or runaway version
// chain — a bug in the layers above.
func (p *Page) Marshal() ([]byte, error) {
	return p.AppendTo(make([]byte, 0, 4+p.SizeEstimate()))
}

// AppendTo serializes the page (checksummed) onto b and returns the
// extended slice; the image occupies b[len(b):] of the input. Callers with
// a reusable buffer avoid Marshal's per-call allocation.
func (p *Page) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // reserved for crc
	b = binary.LittleEndian.AppendUint64(b, uint64(p.ID))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Space))
	b = append(b, byte(p.Type))
	b = append(b, p.Level)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.LLSN))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.Next))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Rows)))
	for i := range p.Rows {
		r := &p.Rows[i]
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Key)))
		b = append(b, r.Key...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Versions)))
		for j := range r.Versions {
			v := &r.Versions[j]
			b = v.Trx.Marshal(b)
			b = binary.LittleEndian.AppendUint64(b, uint64(v.CTS))
			if v.Deleted {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(len(v.Value)))
			b = append(b, v.Value...)
		}
	}
	if len(b)-start > FrameSize {
		return nil, fmt.Errorf("page %d: marshaled size %d exceeds frame size %d",
			p.ID, len(b)-start, FrameSize)
	}
	binary.LittleEndian.PutUint32(b[start:], crc32.Checksum(b[start+4:], crcTable))
	return b, nil
}

// Unmarshal parses a page image produced by Marshal, verifying the checksum.
// It validates every length before allocating anything sized by the image,
// then copies the image once: keys and values are capacity-capped sub-slices
// of that copy, all rows share one []Row and all versions one []Version. The
// page owns its bytes, so b is reusable on return, and an append to one key
// or value reallocates instead of overwriting its neighbour.
func Unmarshal(b []byte) (*Page, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("page image of %d bytes: %w", len(b), common.ErrShortBuffer)
	}
	if len(b) > FrameSize {
		return nil, fmt.Errorf("page image of %d bytes exceeds frame size: %w", len(b), common.ErrCorrupt)
	}
	if crc32.Checksum(b[4:], crcTable) != binary.LittleEndian.Uint32(b) {
		return nil, fmt.Errorf("page checksum mismatch: %w", common.ErrCorrupt)
	}
	nRows := int(binary.LittleEndian.Uint32(b[headerSize-4:]))
	nVers, err := decodeRows(b, nRows, nil, nil)
	if err != nil {
		return nil, err
	}
	img := append([]byte(nil), b...)
	p := &Page{
		ID:    common.PageID(binary.LittleEndian.Uint64(img[4:])),
		Space: common.SpaceID(binary.LittleEndian.Uint32(img[12:])),
		Type:  Type(img[16]),
		Level: img[17],
		LLSN:  common.LLSN(binary.LittleEndian.Uint64(img[18:])),
		Next:  common.PageID(binary.LittleEndian.Uint64(img[26:])),
		Rows:  make([]Row, nRows),
	}
	_, err = decodeRows(img, nRows, p.Rows, make([]Version, nVers))
	return p, err
}

// decodeRows walks the nRows rows of a checksummed image and returns their
// total version count. It rejects a length running past the image, a
// tombstone flag other than 0 or 1, and trailing bytes, so every image it
// accepts re-marshals to itself. With rows nil it only validates; otherwise
// it fills rows and vers with sub-slices of img.
func decodeRows(img []byte, nRows int, rows []Row, vers []Version) (int, error) {
	rd, nv := img[headerSize:], 0
	for r := 0; r < nRows; r++ {
		key, rest, err := field(rd)
		if err != nil {
			return 0, err
		}
		if len(rest) < 4 {
			return 0, common.ErrShortBuffer
		}
		first, n := nv, int(binary.LittleEndian.Uint32(rest))
		rd = rest[4:]
		for v := 0; v < n; v++ {
			const fixed = common.GTrxIDSize + 9 // trx, cts, tombstone flag
			if len(rd) < fixed {
				return 0, common.ErrShortBuffer
			}
			if rd[fixed-1] > 1 {
				return 0, fmt.Errorf("page tombstone flag %d: %w", rd[fixed-1], common.ErrCorrupt)
			}
			val, rest, err := field(rd[fixed:])
			if err != nil {
				return 0, err
			}
			if vers != nil {
				trx, _, _ := common.UnmarshalGTrxID(rd)
				vers[nv] = Version{Trx: trx, CTS: common.CSN(binary.LittleEndian.Uint64(rd[common.GTrxIDSize:])),
					Deleted: rd[fixed-1] == 1, Value: val}
			}
			nv++
			rd = rest
		}
		if rows != nil {
			rows[r] = Row{Key: key, Versions: vers[first:nv:nv]}
		}
	}
	if len(rd) != 0 {
		return 0, fmt.Errorf("page image: %d trailing bytes: %w", len(rd), common.ErrCorrupt)
	}
	return nv, nil
}

// field splits a length-prefixed byte string off the front of b as a
// capacity-capped sub-slice, nil when empty.
func field(b []byte) (v, rest []byte, err error) {
	if len(b) < 4 {
		return nil, b, common.ErrShortBuffer
	}
	n := int(binary.LittleEndian.Uint32(b))
	if b = b[4:]; len(b) < n {
		return nil, b, common.ErrShortBuffer
	}
	if n == 0 {
		return nil, b, nil
	}
	return b[:n:n], b[n:], nil
}
