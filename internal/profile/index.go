package profile

import (
	"fmt"
	"time"

	"pqgram/internal/fingerprint"
	"pqgram/internal/obs"
	"pqgram/internal/tree"
)

// LabelTuple is the unit stored in a pq-gram index: a fixed-width
// fingerprint of the concatenated p+q label fingerprints of one pq-gram
// (§3.2: "we store the concatenation of the hashed labels", mapped to a
// fixed length that is unique with high probability). Equality is the only
// operation the index ever performs on tuples.
type LabelTuple uint64

// TupleOf builds a LabelTuple from label fingerprints.
func TupleOf(hs ...fingerprint.Hash) LabelTuple {
	return LabelTuple(fingerprint.Combine(hs))
}

// Shard maps the tuple to one of 1<<bits shard indexes. The tuple is
// already a fingerprint, but its low bits live in a Mersenne field and are
// not guaranteed uniform, so the value is mixed multiplicatively (Fibonacci
// hashing) and the top bits are used. Shard is the routing function of
// lock-striped index layouts; it is deterministic across processes.
func (lt LabelTuple) Shard(bits uint) uint64 {
	return (uint64(lt) * 0x9e3779b97f4a7c15) >> (64 - bits)
}

// TupleOfLabels builds a LabelTuple from plain labels, hashing each; the
// label "*" denotes the null label and maps to fingerprint.Null. Intended
// for tests and fixtures mirroring the paper's notation.
func TupleOfLabels(labels ...string) LabelTuple {
	hs := make([]fingerprint.Hash, len(labels))
	for i, l := range labels {
		if l == "*" {
			hs[i] = fingerprint.Null
		} else {
			hs[i] = fingerprint.Of(l)
		}
	}
	return TupleOf(hs...)
}

// Index is the pq-gram index of a single tree: the bag of label-tuples of
// its profile, represented as tuple -> multiplicity (Definition 3; the
// relation of Figure 4 restricted to one tree).
type Index map[LabelTuple]int

// BuildIndex computes the pq-gram index of t directly, without materializing
// the profile. When the global collector carries a tracer, sampled builds
// publish a standalone "profile.build" trace.
func BuildIndex(t *tree.Tree, pr Params) Index {
	m := buildObs.Load()
	return buildIndex(t, pr, m, m.col.StartTrace("profile.build"))
}

// BuildIndexSpanned is BuildIndex recording its work into a
// "profile.build" child of parent (nil-safe) instead of sampling through
// the tracer — the explain path, where tracing is forced.
func BuildIndexSpanned(t *tree.Tree, pr Params, parent *obs.Span) Index {
	return buildIndex(t, pr, buildObs.Load(), parent.Child("profile.build"))
}

// buildIndex is the body of both builders: it fills the bag, feeds the
// metrics with it and finishes sp (nil-safe) with its work counters.
func buildIndex(t *tree.Tree, pr Params, m *buildMetrics, sp *obs.Span) Index {
	t0 := time.Now()
	idx := make(Index, t.Size())
	ForEachGram(t, pr, func(g Gram) {
		idx[g.LabelTuple()]++
	})
	size, distinct := int64(idx.Size()), int64(len(idx))
	m.builds.Inc()
	m.grams.Add(size)
	m.distinct.Add(distinct)
	m.bagSize.Observe(size)
	m.buildNS.ObserveSince(t0)
	sp.SetAttr("nodes", int64(t.Size()))
	sp.SetAttr("grams", size)
	sp.SetAttr("distinct_tuples", distinct)
	sp.Finish()
	return idx
}

// Size returns the bag cardinality |I| (the sum of multiplicities).
func (idx Index) Size() int {
	n := 0
	for _, c := range idx {
		n += c
	}
	return n
}

// Distinct returns the number of distinct label-tuples.
func (idx Index) Distinct() int { return len(idx) }

// Add inserts one occurrence of the tuple.
func (idx Index) Add(lt LabelTuple) { idx[lt]++ }

// Sub removes one occurrence of the tuple. It returns an error if the tuple
// is not present: by Lemma 2, λ(Δ⁻) ⊆ λ(P₀) always holds for a correct
// maintenance run, so underflow indicates a bug or a corrupted log.
func (idx Index) Sub(lt LabelTuple) error {
	c, ok := idx[lt]
	if !ok {
		return fmt.Errorf("profile: removing tuple %016x not in index", uint64(lt))
	}
	if c == 1 {
		delete(idx, lt)
	} else {
		idx[lt] = c - 1
	}
	return nil
}

// Clone returns a copy of the index.
func (idx Index) Clone() Index {
	out := make(Index, len(idx))
	for k, v := range idx {
		out[k] = v
	}
	return out
}

// Equal reports whether two indexes are equal as bags.
func (idx Index) Equal(other Index) bool {
	if len(idx) != len(other) {
		return false
	}
	for k, v := range idx {
		if other[k] != v {
			return false
		}
	}
	return true
}

// IntersectSize returns the bag intersection cardinality |I ∩ I'|:
// Σ min(multiplicity, multiplicity').
func (idx Index) IntersectSize(other Index) int {
	a, b := idx, other
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for k, v := range a {
		if w, ok := b[k]; ok {
			if w < v {
				n += w
			} else {
				n += v
			}
		}
	}
	return n
}

// UnionSize returns the bag union cardinality |I ⊎ I'| = |I| + |I'|.
func (idx Index) UnionSize(other Index) int { return idx.Size() + other.Size() }

// Distance returns the pq-gram distance between the trees represented by the
// two indexes:
//
//	dist(T, T') = 1 − 2·|I(T) ∩ I(T')| / |I(T) ⊎ I(T')|
//
// The result is in [0, 1]; 0 means the indexes are identical bags. Two empty
// indexes have distance 0.
func (idx Index) Distance(other Index) float64 {
	u := idx.UnionSize(other)
	if u == 0 {
		return 0
	}
	return 1 - 2*float64(idx.IntersectSize(other))/float64(u)
}

// Distance computes the pq-gram distance between two trees, building both
// indexes from scratch. This is the "on the fly" path of the paper's §9.1
// experiment; precomputed indexes should use Index.Distance.
func Distance(a, b *tree.Tree, pr Params) float64 {
	return BuildIndex(a, pr).Distance(BuildIndex(b, pr))
}
