package core

import (
	"fmt"
	"time"

	"pqgram/internal/edit"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// DeltaPlus computes Δₙ⁺ (Theorem 1): the table pair holding
// ⋃ₖ δ(Tₙ, ēₖ) for every operation of the log, evaluated on the resulting
// tree Tₙ.
func DeltaPlus(tn *tree.Tree, log edit.Log, pr profile.Params) *Tables {
	t := NewTables(pr)
	for _, op := range log {
		t.AddDelta(tn, op)
	}
	return t
}

// Rewind applies the profile update function for every log entry in reverse
// order (ēₙ, ..., ē₁), transforming Δₙ⁺ into Δₙ⁻ in place (Theorem 2).
func (t *Tables) Rewind(log edit.Log) error {
	for i := len(log) - 1; i >= 0; i-- {
		if err := t.Update(log[i]); err != nil {
			return fmt.Errorf("core: rewinding log entry %d: %w", i+1, err)
		}
	}
	return nil
}

// UpdateIndex implements Algorithm 1: it computes the index Iₙ of the tree
// Tₙ from the old index I₀ (of the unavailable tree T₀), the resulting tree
// Tₙ, and the log of inverse edit operations, without reconstructing any
// intermediate tree version:
//
//	Δₙ⁺ = δ(Tₙ,ē₁) ∪ … ∪ δ(Tₙ,ēₙ)
//	Δₙ⁻ = 𝒰(…𝒰(Δₙ⁺, ēₙ)…, ē₁)
//	Iₙ  = I₀ ∖ λ(Δₙ⁻) ⊎ λ(Δₙ⁺)
//
// I₀ is not modified. The returned error is non-nil only if the log does
// not belong to the tree/index pair (or the index is corrupt).
func UpdateIndex(i0 profile.Index, tn *tree.Tree, log edit.Log, pr profile.Params) (profile.Index, error) {
	idx, _, err := UpdateIndexStats(i0, tn, log, pr)
	return idx, err
}

// Stats is the per-step timing breakdown of one UpdateIndex run, mirroring
// the rows of Table 2 of the paper.
type Stats struct {
	DeltaPlus   time.Duration // computing Δₙ⁺ on Tₙ (Algorithm 2, |L| times)
	LambdaPlus  time.Duration // I⁺ = λ(Δₙ⁺)
	DeltaMinus  time.Duration // rewinding Δₙ⁺ to Δₙ⁻ (Algorithm 3, |L| times)
	LambdaMinus time.Duration // I⁻ = λ(Δₙ⁻)
	ApplyIndex  time.Duration // Iₙ = I₀ ∖ I⁻ ⊎ I⁺
	Total       time.Duration

	PlusGrams  int // |Δₙ⁺|
	MinusGrams int // |Δₙ⁻|
	SkippedOps int // log entries with empty delta (not applicable on Tₙ)
}

// UpdateIndexStats is UpdateIndex with a per-step timing breakdown.
func UpdateIndexStats(i0 profile.Index, tn *tree.Tree, log edit.Log, pr profile.Params) (profile.Index, Stats, error) {
	iPlus, iMinus, st, err := Deltas(tn, log, pr)
	if err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	in := i0.Clone()
	if err := ApplyDeltas(in, iPlus, iMinus); err != nil {
		return nil, st, err
	}
	st.ApplyIndex = time.Since(t0)
	st.Total += st.ApplyIndex
	return in, st, nil
}

// UpdateIndexInPlace is UpdateIndex applied destructively to i0, matching
// the paper's implementation where I₀ ∖ I⁻ ⊎ I⁺ is an UPDATE on the stored
// relation. On error i0 is unchanged.
func UpdateIndexInPlace(i0 profile.Index, tn *tree.Tree, log edit.Log, pr profile.Params) (Stats, error) {
	iPlus, iMinus, st, err := Deltas(tn, log, pr)
	if err != nil {
		return st, err
	}
	t0 := time.Now()
	if err := ApplyDeltas(i0, iPlus, iMinus); err != nil {
		return st, err
	}
	st.ApplyIndex = time.Since(t0)
	st.Total += st.ApplyIndex
	return st, nil
}

// Deltas computes the index-level deltas of Algorithm 1 without applying
// them: I⁺ = λ(Δₙ⁺) and I⁻ = λ(Δₙ⁻). Callers that maintain additional
// structures keyed by label-tuple (e.g. the inverted postings of a forest
// index) can apply the same deltas everywhere.
func Deltas(tn *tree.Tree, log edit.Log, pr profile.Params) (iPlus, iMinus profile.Index, st Stats, err error) {
	start := time.Now()

	t0 := time.Now()
	tables := NewTables(pr)
	for _, op := range log {
		if !tables.AddDelta(tn, op) {
			st.SkippedOps++
		}
	}
	st.DeltaPlus = time.Since(t0)
	st.PlusGrams = tables.Len()

	t0 = time.Now()
	iPlus, err = tables.Lambda()
	if err != nil {
		return nil, nil, st, err
	}
	st.LambdaPlus = time.Since(t0)

	t0 = time.Now()
	if err = tables.Rewind(log); err != nil {
		return nil, nil, st, err
	}
	st.DeltaMinus = time.Since(t0)
	st.MinusGrams = tables.Len()

	t0 = time.Now()
	iMinus, err = tables.Lambda()
	if err != nil {
		return nil, nil, st, err
	}
	st.LambdaMinus = time.Since(t0)
	st.Total = time.Since(start)
	return iPlus, iMinus, st, nil
}

// ApplyDeltas performs in = in ∖ iMinus ⊎ iPlus in place. It fails, leaving
// in unchanged, if iMinus is not contained in the index, which indicates
// that the log does not belong to the index's tree.
func ApplyDeltas(in, iPlus, iMinus profile.Index) error {
	if err := CheckMinus(func(lt profile.LabelTuple) int { return in[lt] }, iMinus); err != nil {
		return err
	}
	for lt, c := range iMinus {
		if n := in[lt] - c; n == 0 {
			delete(in, lt)
		} else {
			in[lt] = n
		}
	}
	for lt, c := range iPlus {
		in[lt] += c
	}
	return nil
}

// CheckMinus is ApplyDeltas's containment check alone, for a caller that
// must know a delta applies before it applies it. count gives a tuple's
// multiplicity in I₀, whatever form I₀ is held in.
func CheckMinus(count func(profile.LabelTuple) int, iMinus profile.Index) error {
	for lt, c := range iMinus {
		if have := count(lt); have < c {
			return fmt.Errorf("core: I⁻ not contained in I₀: tuple %016x occurs %d times, I⁻ removes %d", uint64(lt), have, c)
		}
	}
	return nil
}
