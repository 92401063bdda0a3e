// Dedup finds near-duplicate documents in a collection with approximate
// pq-gram lookups — the use case that motivates approximate matching of
// hierarchical data in the paper's introduction (duplicate detection à la
// Weis & Naumann's DogmatiX, here powered by the pq-gram index).
//
// The example builds a corpus of bibliography fragments in which some
// documents are independently authored and some are noisy copies of each
// other (reordered fields, renamed tags, missing entries), then clusters
// documents whose pairwise pq-gram distance is below a threshold.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"pqgram"
	"pqgram/internal/gen" // corpus generation only; the API under test is pqgram
)

func main() {
	originals := flag.Int("originals", 12, "number of independent documents")
	copies := flag.Int("copies", 2, "noisy copies per document")
	noise := flag.Int("noise", 8, "edit operations per noisy copy")
	tau := flag.Float64("tau", 0.5, "duplicate distance threshold")
	flag.Parse()

	p := pqgram.DefaultParams
	rng := rand.New(rand.NewSource(7))
	f := pqgram.NewForest(p)

	// Ground truth: which documents are copies of which original.
	truth := make(map[string]string)
	var ids []string
	for i := 0; i < *originals; i++ {
		orig := gen.DBLP(int64(100+i), 150+rng.Intn(150))
		origID := fmt.Sprintf("doc-%02d", i)
		if err := f.Add(origID, orig); err != nil {
			log.Fatal(err)
		}
		truth[origID] = origID
		ids = append(ids, origID)
		for c := 0; c < *copies; c++ {
			dup, _, err := gen.Perturb(rng, orig, *noise, gen.DefaultMix)
			if err != nil {
				log.Fatal(err)
			}
			dupID := fmt.Sprintf("doc-%02d-copy%d", i, c)
			if err := f.Add(dupID, dup); err != nil {
				log.Fatal(err)
			}
			truth[dupID] = origID
			ids = append(ids, dupID)
		}
	}
	sort.Strings(ids)
	fmt.Printf("corpus: %d documents (%d originals, %d copies each), threshold %.2f\n\n",
		f.Len(), *originals, *copies, *tau)

	// Cluster by single-linkage over sub-threshold pairs, using the index
	// for the candidate search instead of all-pairs distance computation.
	parent := make(map[string]string, len(ids))
	for _, id := range ids {
		parent[id] = id
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	// One similarity join finds every sub-threshold pair via the index;
	// disjoint documents are never even scored.
	joined := f.SimilarityJoin(*tau, 0)
	for _, p := range joined {
		union(p.A, p.B)
	}
	pairs := len(joined)

	clusters := make(map[string][]string)
	for _, id := range ids {
		root := find(id)
		clusters[root] = append(clusters[root], id)
	}

	correct, total := 0, 0
	var roots []string
	for root := range clusters {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	fmt.Println("detected duplicate clusters:")
	for _, root := range roots {
		members := clusters[root]
		if len(members) < 2 {
			continue
		}
		sort.Strings(members)
		fmt.Printf("  %v\n", members)
		// A cluster is correct if all members share the same ground truth.
		same := true
		for _, m := range members {
			if truth[m] != truth[members[0]] {
				same = false
			}
		}
		total++
		if same && len(members) == 1+*copies {
			correct++
		}
	}
	fmt.Printf("\n%d sub-threshold pairs found via the index\n", pairs)
	fmt.Printf("%d/%d clusters exactly match the ground truth\n", correct, total)
}
