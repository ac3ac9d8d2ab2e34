package storage

import "polardbmp/internal/common"

// API is the disaggregated-shared-storage surface the engine is written
// against. *Store implements it in-process; *Remote implements it over the
// fabric for satellite processes that joined an existing cluster (the
// PolarStore client of a node that does not host the store itself). Keeping
// the engine on this interface is what lets a primary run in a different OS
// process from the storage tier without changing wal/bufferfusion/core.
type API interface {
	// Stats exposes the implementation's local operation counters.
	Stats() *Stats
	// SetInjector installs (or removes, with nil) a fault injector.
	SetInjector(inj common.FaultInjector)

	// Page store.
	AllocPage() common.PageID
	ReadPage(id common.PageID) ([]byte, error)
	WritePage(id common.PageID, img []byte) error
	PageIDs() []common.PageID

	// Metadata area.
	PutMeta(key string, val []byte)
	GetMeta(key string) []byte

	// Per-node append-only log streams.
	LogAppend(node common.NodeID, data []byte) common.LSN
	LogSync(node common.NodeID) common.LSN
	LogEndLSN(node common.NodeID) common.LSN
	LogDurableLSN(node common.NodeID) common.LSN
	LogStartLSN(node common.NodeID) common.LSN
	LogRead(node common.NodeID, lsn common.LSN, buf []byte) (int, error)
	LogCrashVolatile(node common.NodeID)
	FenceLog(node common.NodeID)
	UnfenceLog(node common.NodeID)
	LogFenced(node common.NodeID) bool
	LogTruncate(node common.NodeID, lsn common.LSN)
	LogNodes() []common.NodeID
}

var _ API = (*Store)(nil)
