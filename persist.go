package pqgram

import (
	"pqgram/internal/profile"
	"pqgram/internal/store"
)

// Store is a durable forest index that scales beyond RAM: an LSM-style
// storage engine whose memtable is the forest itself, a write-ahead
// journal, and immutable on-disk segments. Mutations (Add, Remove,
// Update) append a small journal record before being applied, so the
// persistent cost of an incremental update is proportional to the edit
// log, not to the index — the paper's "persistent and incrementally
// maintainable" made literal. A crash loses at most the interrupted
// append; OpenStore recovers the intact prefix. Flush evicts the mutated
// documents into an immutable, checksummed, bloom-filtered segment file;
// lookups merge the in-RAM postings with segment streams and stay
// byte-identical to the all-in-RAM path. Without a Flush, a Compact or a
// flush threshold everything stays resident. The on-disk formats are
// specified in STORAGE.md.
type Store = store.Segmented

// SegmentStats describes the current shape of a store: live segments and
// their total bytes, resident (memtable) vs evicted (segment-served)
// documents, and pending tombstones.
type SegmentStats = store.SegmentStats

// CreateStore creates a new empty store rooted at path (path+".manifest",
// path+".wal" journal, path+".NNNNNN.seg" segments as flushes happen).
func CreateStore(path string, p Params) (*Store, error) {
	return store.CreateSegmented(path, profile.Params(p))
}

// OpenStore opens a store: loads the manifest, verifies and maps every
// live segment, replays the journal against the memtable, truncates any
// torn tail left by a crash, and discards a stale journal left by a crash
// between manifest swap and journal reset.
func OpenStore(path string) (*Store, error) { return store.OpenSegmented(path) }

// RecoveryInfo describes what OpenStore found and repaired while bringing
// a store back: intact records replayed, torn or checksum-failed bytes
// dropped, and whether a stale or foreign journal had to be discarded.
// Available from Store.Recovery after an open.
type RecoveryInfo = store.RecoveryInfo
