// Package pqgram is an incrementally maintainable index for approximate
// lookups in hierarchical data — a from-scratch Go implementation of
// Augsten, Böhlen and Gamper, "An Incrementally Maintainable Index for
// Approximate Lookups in Hierarchical Data", VLDB 2006.
//
// # Overview
//
// The pq-grams of a tree are all its subtrees of a specific shape: an
// anchor node with p-1 ancestors and q contiguous children (padded with
// dummy nodes at the boundaries). Trees that share many pq-grams are
// similar; the pq-gram distance approximates the tree edit distance at
// O(n log n) cost instead of O(n²)+.
//
// The package provides:
//
//   - ordered labeled trees, built programmatically or parsed from XML;
//   - pq-gram indexes (bags of hashed label-tuples) and the pq-gram
//     distance between trees;
//   - a forest index over a document collection with threshold and
//     top-k approximate lookups, persistable to disk;
//   - tree edit operations (insert, delete, rename) with inverses and
//     logs; and
//   - the paper's contribution: incremental index maintenance. Given the
//     old index, the edited document, and the log of inverse edit
//     operations, UpdateIndex produces the new index without rebuilding
//     it and without reconstructing any intermediate document version.
//
// # Quick start
//
//	doc, _ := pqgram.ParseXMLString(`<a><b/><c/></a>`)
//	other, _ := pqgram.ParseXMLString(`<a><b/><x/></a>`)
//	d := pqgram.Distance(doc, other, pqgram.DefaultParams) // ∈ [0, 1]
//
// See the examples directory for complete programs.
package pqgram

import (
	"pqgram/internal/profile"
	"pqgram/internal/ted"
	"pqgram/internal/tree"
)

// Params holds the pq-gram shape parameters: p ancestors (including the
// anchor) and q children per gram. The paper's default is p = q = 3.
type Params = profile.Params

// DefaultParams is the paper's standard parameterization, 3,3-grams.
var DefaultParams = profile.Default

// Tree is an ordered labeled tree with unique node identifiers. Build one
// with NewTree/AddChild, ParseTree, or ParseXML.
type Tree = tree.Tree

// Node is a single tree node: an (identifier, label) pair.
type Node = tree.Node

// NodeID identifies a node uniquely within a tree.
type NodeID = tree.NodeID

// NewTree creates a tree consisting of a single root node.
func NewTree(rootLabel string) *Tree { return tree.New(rootLabel) }

// ParseTree parses the compact parenthesized notation "a(b c(d))".
func ParseTree(s string) (*Tree, error) { return tree.Parse(s) }

// MustParseTree is ParseTree that panics on error, for tests and fixtures.
func MustParseTree(s string) *Tree { return tree.MustParse(s) }

// Index is the pq-gram index of a single tree: the bag of label-tuple
// fingerprints of its pq-grams (Definition 3 of the paper).
type Index = profile.Index

// LabelTuple is a fixed-width fingerprint of one pq-gram's label tuple.
type LabelTuple = profile.LabelTuple

// Bag is the frozen form of an Index: immutable, its tuples sorted, 12
// bytes per distinct tuple. Forest.AddIndex takes one, Forest.Bag
// returns one.
type Bag = profile.Bag

// Freeze returns the frozen bag of an index.
func Freeze(idx Index) Bag { return profile.Freeze(idx) }

// BuildIndex computes the pq-gram index of a tree from scratch.
func BuildIndex(t *Tree, p Params) Index { return profile.BuildIndex(t, p) }

// Count returns the number of pq-grams of the tree: f+q-1 per inner node
// of fanout f, one per leaf.
func Count(t *Tree, p Params) int { return profile.Count(t, p) }

// Distance computes the pq-gram distance between two trees,
//
//	dist(T, T') = 1 − 2·|I(T) ∩ I(T')| / |I(T) ⊎ I(T')|  ∈ [0, 1],
//
// building both indexes on the fly. With precomputed indexes use
// Index.Distance.
func Distance(a, b *Tree, p Params) float64 { return profile.Distance(a, b, p) }

// DistanceUnordered is Distance on the canonical forms of the two trees
// (every node's children sorted by label, ties broken structurally):
// sibling permutations cost nothing, so it measures similarity of
// *unordered* trees — the right mode for JSON-like data or XML whose
// element order is incidental. Canonicalize once with Tree.CanonicalClone
// when indexing many unordered documents.
func DistanceUnordered(a, b *Tree, p Params) float64 {
	return profile.Distance(a.CanonicalClone(), b.CanonicalClone(), p)
}

// TreeEditDistance computes the exact tree edit distance of Zhang and
// Shasha with unit costs. It is quadratic and meant for small trees and
// for validating the pq-gram approximation; use Distance for large data.
func TreeEditDistance(a, b *Tree) int { return ted.Distance(a, b) }
