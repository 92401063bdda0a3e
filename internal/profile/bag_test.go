package profile_test

import (
	"testing"

	"pqgram/internal/profile"
)

// TestSortedBag: the decoder's constructor takes strictly ascending
// tuples with positive counts and rejects anything else, naming the entry.
func TestSortedBag(t *testing.T) {
	lo, hi := profile.TupleOfLabels("a"), profile.TupleOfLabels("b")
	if hi < lo {
		lo, hi = hi, lo
	}
	bag, err := profile.SortedBag([]profile.LabelTuple{lo, hi}, []uint32{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if bag.Size() != 3 || bag.Distinct() != 2 || bag.Count(lo) != 2 || !bag.Equal(profile.Freeze(profile.Index{lo: 2, hi: 1})) {
		t.Fatalf("SortedBag = %v", bag.Index())
	}
	for _, tc := range []struct {
		name   string
		tuples []profile.LabelTuple
		counts []uint32
	}{
		{"length mismatch", []profile.LabelTuple{lo}, []uint32{1, 2}},
		{"descending", []profile.LabelTuple{hi, lo}, []uint32{1, 1}},
		{"duplicate", []profile.LabelTuple{lo, lo}, []uint32{1, 1}},
		{"zero count", []profile.LabelTuple{lo}, []uint32{0}},
	} {
		if _, err := profile.SortedBag(tc.tuples, tc.counts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestBagZeroValue: the zero Bag is the empty bag, and Freeze leaves out
// map entries whose count is not positive.
func TestBagZeroValue(t *testing.T) {
	var z profile.Bag
	lt := profile.TupleOfLabels("a")
	if z.Size() != 0 || z.Distinct() != 0 || z.Count(lt) != 0 || len(z.Index()) != 0 {
		t.Fatal("zero Bag is not empty")
	}
	if !z.Equal(profile.Freeze(profile.Index{lt: 0, profile.TupleOfLabels("b"): -1})) {
		t.Fatal("Freeze kept a non-positive count")
	}
	got := z.With(map[profile.LabelTuple]int{lt: 2})
	if got.Count(lt) != 2 || got.Distinct() != 1 {
		t.Fatalf("empty with {a:2} = %v", got.Index())
	}
	if got = got.With(map[profile.LabelTuple]int{lt: 0}); got.Distinct() != 0 {
		t.Fatalf("{a:2} with {a:0} = %v, want empty", got.Index())
	}
}
