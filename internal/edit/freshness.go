package edit

import (
	"fmt"

	"pqgram/internal/tree"
)

// VerifyLog checks that a log is a valid sequence of inverse operations
// for the tree tn: applied in reverse order to a clone, every operation is
// applicable. It returns the reconstructed original tree T0 on success.
// Use it to vet logs from untrusted feeds before UpdateIndex; it costs a
// tree copy plus the replay, which index maintenance itself avoids.
func VerifyLog(tn *tree.Tree, log Log) (*tree.Tree, error) {
	t0 := tn.Clone()
	if err := log.Undo(t0); err != nil {
		return nil, err
	}
	return t0, nil
}

// CheckFreshIDs verifies that a script uses fresh node identities: every
// inserted node ID must never have occurred before — neither in the initial
// tree t0 nor as an earlier insert, even if the node was deleted in between.
//
// The incremental index maintenance of package core inherits this
// requirement from the paper: Lemma 3 (and with it Theorems 1 and 2)
// implicitly assumes node identities are stable across the edit sequence.
// Re-inserting a deleted identity makes the inverse of the earlier delete
// inapplicable on Tn, its delta collapses to the empty set (Definition 4),
// and the rewind chain is left without pq-grams it needs. Real change feeds
// assign new identities on insert, so the restriction is natural — but a
// violating log would otherwise fail late (or worse); this check fails it
// early with a precise reason.
//
// The script is not applied; only ID bookkeeping is simulated, so t0 may be
// the tree before or a clone.
func CheckFreshIDs(t0 *tree.Tree, s Script) error {
	used := make(map[tree.NodeID]bool, t0.Size()+len(s))
	for _, id := range t0.IDs() {
		used[id] = true
	}
	for i, op := range s {
		if op.Kind != Insert {
			continue
		}
		if used[op.Node] {
			return fmt.Errorf("edit: op %d (%s) re-inserts node ID %d, which was already used", i+1, op, op.Node)
		}
		used[op.Node] = true
	}
	return nil
}
