package profile

import (
	"fmt"
	"slices"
)

// Bag is a frozen pq-gram index: the bag of an Index held as two parallel
// arrays, the distinct tuples ascending and their multiplicities, 12 bytes
// per distinct tuple where the map spends about 30. A Bag is immutable;
// With returns a new one. The zero Bag is the empty bag.
//
// The sorted form is what the ordered consumers want as it is — the
// store's encoders write a bag ascending by tuple — and both of the
// paper's operations on it are one merge: the lookup's intersection
// (IntersectSize) and the update I₀ ∖ I⁻ ⊎ I⁺, which the forest keeps as
// an overlay of absolute counts until it folds it in (With).
type Bag struct {
	tuples []LabelTuple
	counts []uint32
}

// Freeze returns the bag of idx in sorted form. Entries with a count
// below 1 are not part of a bag and are left out.
func Freeze(idx Index) Bag {
	tuples := make([]LabelTuple, 0, len(idx))
	for lt, c := range idx {
		if c > 0 {
			tuples = append(tuples, lt)
		}
	}
	slices.Sort(tuples)
	counts := make([]uint32, len(tuples))
	for i, lt := range tuples {
		counts[i] = uint32(idx[lt])
	}
	return Bag{tuples: tuples, counts: counts}
}

// SortedBag wraps parallel arrays of strictly ascending tuples and
// positive counts as a Bag, which owns them afterwards. It is how a
// decoder of the sorted on-disk form builds a bag without a map; it
// fails, naming the first bad entry, when the order or a count is wrong.
func SortedBag(tuples []LabelTuple, counts []uint32) (Bag, error) {
	if len(tuples) != len(counts) {
		return Bag{}, fmt.Errorf("profile: %d tuples for %d counts", len(tuples), len(counts))
	}
	for i, c := range counts {
		if i > 0 && tuples[i] <= tuples[i-1] {
			return Bag{}, fmt.Errorf("profile: tuple %d does not ascend", i)
		}
		if c == 0 {
			return Bag{}, fmt.Errorf("profile: tuple %d has a zero count", i)
		}
	}
	return Bag{tuples: tuples, counts: counts}, nil
}

// Distinct returns the number of distinct label-tuples.
func (b Bag) Distinct() int { return len(b.tuples) }

// Size returns the bag cardinality |I| (the sum of multiplicities).
func (b Bag) Size() int {
	n := 0
	for _, c := range b.counts {
		n += int(c)
	}
	return n
}

// At returns the i-th distinct tuple in ascending order and its
// multiplicity, for 0 ≤ i < Distinct(): the bag's ordered iteration.
func (b Bag) At(i int) (LabelTuple, int) { return b.tuples[i], int(b.counts[i]) }

// Count returns the multiplicity of lt, 0 if the bag lacks it.
func (b Bag) Count(lt LabelTuple) int {
	if i, ok := slices.BinarySearch(b.tuples, lt); ok {
		return int(b.counts[i])
	}
	return 0
}

// Equal reports whether two bags are equal.
func (b Bag) Equal(o Bag) bool {
	return slices.Equal(b.tuples, o.tuples) && slices.Equal(b.counts, o.counts)
}

// IntersectSize returns the bag intersection cardinality |b ∩ o|, the
// sum over shared tuples of the smaller multiplicity, as one merge of the
// two sorted arrays. It equals Index.IntersectSize on the maps.
func (b Bag) IntersectSize(o Bag) int {
	n, i, j := 0, 0, 0
	for i < len(b.tuples) && j < len(o.tuples) {
		switch x, y := b.tuples[i], o.tuples[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			n += int(min(b.counts[i], o.counts[j]))
			i++
			j++
		}
	}
	return n
}

// Index returns the bag as a new Index the caller owns.
func (b Bag) Index() Index {
	idx := make(Index, len(b.tuples))
	for i, lt := range b.tuples {
		idx[lt] = int(b.counts[i])
	}
	return idx
}

// With returns b with the multiplicity of each tuple in over replaced by
// over's, a tuple with a count below 1 dropping out: a frozen bag under
// an overlay of absolute counts, as one merge.
func (b Bag) With(over map[LabelTuple]int) Bag {
	keys := make([]LabelTuple, 0, len(over))
	for lt := range over {
		keys = append(keys, lt)
	}
	slices.Sort(keys)
	n := len(b.tuples) + len(keys)
	out := Bag{tuples: make([]LabelTuple, 0, n), counts: make([]uint32, 0, n)}
	i := 0
	for _, lt := range keys {
		j := i
		for j < len(b.tuples) && b.tuples[j] < lt {
			j++
		}
		out.tuples = append(out.tuples, b.tuples[i:j]...)
		out.counts = append(out.counts, b.counts[i:j]...)
		if i = j; i < len(b.tuples) && b.tuples[i] == lt {
			i++
		}
		if c := over[lt]; c > 0 {
			out.tuples = append(out.tuples, lt)
			out.counts = append(out.counts, uint32(c))
		}
	}
	out.tuples = append(out.tuples, b.tuples[i:]...)
	out.counts = append(out.counts, b.counts[i:]...)
	return out
}
