package profile_test

import (
	"testing"

	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// decodeTree builds a deterministic tree from fuzz bytes: each byte
// either descends into a new child, adds a sibling leaf, climbs back up,
// or starts a new subtree at the root, with the label drawn from a small
// alphabet so that bags genuinely collide.
func decodeTree(data []byte) *tree.Tree {
	labels := [...]string{"a", "b", "c", "d"}
	if len(data) > 96 {
		data = data[:96]
	}
	t := tree.New(labels[0])
	cur := t.Root()
	for _, b := range data {
		l := labels[b&3]
		switch (b >> 2) & 3 {
		case 0:
			cur = t.AddChild(cur, l)
		case 1:
			t.AddChild(cur, l)
		case 2:
			if p := cur.Parent(); p != nil {
				cur = p
			} else {
				t.AddChild(cur, l)
			}
		default:
			cur = t.AddChild(t.Root(), l)
		}
	}
	return t
}

// FuzzDistance fuzzes the properties of the normalized pq-gram distance
// (Definition 3) that the lookup paths rely on, on random tree triples:
// symmetric, within [0, 1], zero exactly on equal bags, and equal to
// DistanceFrom — the expression every postings path scores with — on the
// two sizes and the bag overlap. On the same triples it runs the frozen
// Bag against the map it was frozen from (bagAgreesWithMap).
func FuzzDistance(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{5, 6}, []byte{9}, uint8(3), uint8(3))
	f.Add([]byte{}, []byte{0}, []byte{0, 0}, uint8(1), uint8(1))
	f.Add([]byte{13, 13, 13}, []byte{13, 13, 13}, []byte{2, 4, 8}, uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, ab, bb, cb []byte, p, q uint8) {
		pr := profile.Params{P: 1 + int(p%4), Q: 1 + int(q%4)}
		ta, tb, tc := decodeTree(ab), decodeTree(bb), decodeTree(cb)
		bags := []profile.Index{profile.BuildIndex(ta, pr), profile.BuildIndex(tb, pr), profile.BuildIndex(tc, pr)}
		for _, x := range bags {
			for _, y := range bags {
				dxy := x.Distance(y)
				if dxy < 0 || dxy > 1 {
					t.Fatalf("dist = %v outside [0, 1]", dxy)
				}
				if dyx := y.Distance(x); dyx != dxy {
					t.Fatalf("asymmetric: dist(x,y)=%v, dist(y,x)=%v", dxy, dyx)
				}
				if (dxy == 0) != x.Equal(y) {
					t.Fatalf("dist(x,y)=%v but bags equal=%v", dxy, x.Equal(y))
				}
				if want := profile.DistanceFrom(x.Size(), y.Size(), x.IntersectSize(y)); dxy != want {
					t.Fatalf("Distance %v, DistanceFrom %v", dxy, want)
				}
			}
		}
		bagAgreesWithMap(t, bags[0], bags[1], bags[2])
	})
}

// bagAgreesWithMap is the differential of profile.Bag against the map:
// Freeze, Size, Distinct, Count, At's order, Equal, IntersectSize and
// Index on each of x, y, z, and With against overlaying z's counts on x
// with y's other tuples dropped.
func bagAgreesWithMap(t *testing.T, x, y, z profile.Index) {
	t.Helper()
	idxs := []profile.Index{x, y, z}
	for _, m := range idxs {
		b := profile.Freeze(m)
		if b.Size() != m.Size() || b.Distinct() != m.Distinct() || !b.Index().Equal(m) {
			t.Fatalf("Freeze: size %d distinct %d, map has %d and %d", b.Size(), b.Distinct(), m.Size(), m.Distinct())
		}
		for i := 0; i < b.Distinct(); i++ {
			lt, c := b.At(i)
			if i > 0 {
				if prev, _ := b.At(i - 1); prev >= lt {
					t.Fatalf("At(%d) = %016x does not ascend", i, uint64(lt))
				}
			}
			if c != m[lt] {
				t.Fatalf("At(%d) count %d, map %d", i, c, m[lt])
			}
		}
		for _, o := range idxs {
			for lt := range o {
				if b.Count(lt) != m[lt] {
					t.Fatalf("Count(%016x) = %d, map %d", uint64(lt), b.Count(lt), m[lt])
				}
			}
			if b.Equal(profile.Freeze(o)) != m.Equal(o) {
				t.Fatalf("Bag.Equal disagrees with Index.Equal")
			}
			if got, want := b.IntersectSize(profile.Freeze(o)), m.IntersectSize(o); got != want {
				t.Fatalf("Bag.IntersectSize = %d, Index.IntersectSize %d", got, want)
			}
		}
	}
	// With: z's counts as an overlay on x, and y's tuples outside z
	// dropped by a zero.
	over := z.Clone()
	for lt := range y {
		if _, ok := z[lt]; !ok {
			over[lt] = 0
		}
	}
	want := x.Clone()
	for lt, c := range over {
		if c == 0 {
			delete(want, lt)
		} else {
			want[lt] = c
		}
	}
	if got := profile.Freeze(x).With(over); !got.Equal(profile.Freeze(want)) {
		t.Fatalf("With = %v, map overlay %v", got.Index(), want)
	}
}

// TestNormalizedDistanceIsNotAMetric pins the counterexample that keeps
// triangle-inequality pruning off the paper's distance: three bags for
// which the normalized pq-gram distance violates the triangle inequality.
func TestNormalizedDistanceIsNotAMetric(t *testing.T) {
	a := profile.Index{profile.TupleOfLabels("a", "a", "a"): 1}
	b := profile.Index{profile.TupleOfLabels("b", "b", "b"): 1}
	c := profile.Index{
		profile.TupleOfLabels("a", "a", "a"): 1,
		profile.TupleOfLabels("b", "b", "b"): 1,
	}
	dab, dac, dcb := a.Distance(b), a.Distance(c), c.Distance(b)
	if dab <= dac+dcb {
		t.Fatalf("expected a triangle violation, got %v ≤ %v + %v", dab, dac, dcb)
	}
}
