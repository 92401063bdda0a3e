package pqgram

import (
	"io"

	"pqgram/internal/forest"
	"pqgram/internal/store"
)

// Forest is the pq-gram index of a collection of named trees: the relation
// (treeId, pqg, cnt) of the paper plus inverted postings, supporting
// approximate lookups and incremental per-document maintenance. It is safe
// for concurrent use — the postings are sharded across lock stripes and
// each document's bag has its own lock, so lookups run in parallel with
// each other and with incremental updates of other documents. The bulk
// entry points (AddAll, and SimilarityJoin, which is one lookup per
// document) fan work out across a worker pool with results identical at
// every worker count.
type Forest = forest.Index

// Doc is one named document of a bulk build (Forest.AddAll, Store.AddAll).
type Doc = forest.Doc

// Match is one approximate-lookup result: a tree ID and its pq-gram
// distance to the query.
type Match = forest.Match

// Pair is one result of a similarity join: two indexed tree IDs and their
// pq-gram distance.
type Pair = forest.Pair

// NewForest creates an empty forest index.
func NewForest(p Params) *Forest { return forest.New(p) }

// SaveForest writes the forest index to w in the checksummed binary format
// of the store package.
func SaveForest(w io.Writer, f *Forest) error { return store.Save(w, f) }

// LoadForest reads a forest index written by SaveForest.
func LoadForest(r io.Reader) (*Forest, error) { return store.Load(r) }

// SaveForestFile writes the index to a file, replacing it atomically.
func SaveForestFile(path string, f *Forest) error { return store.SaveFile(path, f) }

// LoadForestFile reads an index file written by SaveForestFile.
func LoadForestFile(path string) (*Forest, error) { return store.LoadFile(path) }

// ForestSize returns the number of bytes SaveForest would write.
func ForestSize(f *Forest) (int64, error) { return store.Size(f) }
