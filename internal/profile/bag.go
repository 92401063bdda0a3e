package profile

import (
	"fmt"
	"slices"
)

// Bag is a frozen pq-gram index: the bag of an Index held as two parallel
// arrays, the distinct tuples ascending and their multiplicities, 12 bytes
// per distinct tuple where the map spends about 30. A Bag is immutable;
// Apply returns a new one. The zero Bag is the empty bag.
//
// The sorted form is what the ordered consumers want as it is — the
// store's encoders write a bag ascending by tuple — and the paper's
// update I₀ ∖ I⁻ ⊎ I⁺ on it is one merge (Apply).
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

// Index returns the bag as a new Index the caller owns.
func (b Bag) Index() Index {
	idx := make(Index, len(b.tuples))
	for i, lt := range b.tuples {
		idx[lt] = int(b.counts[i])
	}
	return idx
}

// Apply returns b ∖ minus ⊎ plus, the update of the paper's Algorithm 1,
// as one merge of the three sorted arrays. It fails, returning the empty
// bag, if minus is not contained in b.
func (b Bag) Apply(plus, minus Bag) (Bag, error) {
	n := len(b.tuples) + len(plus.tuples)
	out := Bag{tuples: make([]LabelTuple, 0, n), counts: make([]uint32, 0, n)}
	i, j, k := 0, 0, 0
	for i < len(b.tuples) || j < len(plus.tuples) || k < len(minus.tuples) {
		// lt is the least tuple left in any of the three; have, add and
		// drop are its counts in b, plus and minus.
		lt := LabelTuple(1<<64 - 1)
		if i < len(b.tuples) {
			lt = b.tuples[i]
		}
		if j < len(plus.tuples) {
			lt = min(lt, plus.tuples[j])
		}
		if k < len(minus.tuples) {
			lt = min(lt, minus.tuples[k])
		}
		var have, add, drop uint32
		if i < len(b.tuples) && b.tuples[i] == lt {
			have = b.counts[i]
			i++
		}
		if j < len(plus.tuples) && plus.tuples[j] == lt {
			add = plus.counts[j]
			j++
		}
		if k < len(minus.tuples) && minus.tuples[k] == lt {
			drop = minus.counts[k]
			k++
		}
		if drop > have {
			return Bag{}, fmt.Errorf("profile: removing %d of tuple %016x, the bag holds %d", drop, uint64(lt), have)
		}
		if c := have - drop + add; c > 0 {
			out.tuples = append(out.tuples, lt)
			out.counts = append(out.counts, c)
		}
	}
	return out, nil
}
