// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§9) on synthetic workloads:
//
//	Fig 13 (left)  — approximate lookup with vs. without precomputed index
//	Fig 13 (right) — index construction vs. incremental update over tree size
//	Fig 14 (left)  — index size vs. tree size for 1,2- and 3,3-grams
//	Fig 14 (right) — incremental update time vs. log size (DBLP-shaped)
//	Table 2        — per-step breakdown of the index update time
//
// plus ablations: the anchor-ID secondary index of §8.1, the effect of
// the edit-operation mix, and (p,q) against tree edit distance. Absolute
// numbers differ from the paper's 2006 RDBMS testbed; the reproduced
// quantities are the shapes: who wins, the growth rates, where the
// crossovers are.
//
// That is all this package is for. It is not a performance harness for
// this implementation: those numbers come from the benchmark/ module
// (pqserve end to end, bounds with a measured noise floor), and a new
// performance question is a workload or metric there, not a sweep here.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"pqgram/internal/core"
	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/store"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

// P33 is the paper's default parameterization.
var P33 = profile.Params{P: 3, Q: 3}

// baseSeed offsets every experiment's deterministic rng seed; see SetSeed.
var baseSeed int64

// SetSeed offsets the seeds of all experiment workloads. The default 0
// reproduces the historical workloads exactly; any other value yields a
// different but equally deterministic run (pqbench -seed).
func SetSeed(s int64) { baseSeed = s }

// Row is one measured configuration of an experiment.
type Row struct {
	Label  string
	Values []string
}

// Result is a regenerated table or figure: a header and its measured rows.
type Result struct {
	Title   string
	Comment string
	Header  []string
	Rows    []Row
}

// Print renders the result as an aligned text table.
func (r *Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", r.Title); err != nil {
		return err
	}
	if r.Comment != "" {
		fmt.Fprintf(w, "%s\n", r.Comment)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range r.Header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range r.Rows {
		fmt.Fprint(tw, row.Label)
		for _, v := range row.Values {
			fmt.Fprintf(tw, "\t%s", v)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }

// Fig13Lookup regenerates Figure 13 (left): the wall-clock time of an
// approximate lookup of one document in collections with a similar total
// node count but different document counts, with a precomputed index
// versus computing the indexes on the fly.
func Fig13Lookup(totalNodes int, docCounts []int, tau float64) *Result {
	res := &Result{
		Title:   "Figure 13 (left): lookup time with and without precomputed index",
		Comment: fmt.Sprintf("collections of ~%d total nodes; threshold tau=%.2f; XMark-shaped documents", totalNodes, tau),
		Header:  []string{"#docs", "docsize", "indexed", "on-the-fly", "matches"},
	}
	for _, nd := range docCounts {
		docs := gen.XMarkForest(int64(nd), nd, totalNodes)
		f := forest.New(P33)
		for i, d := range docs {
			if err := f.Add(fmt.Sprintf("doc-%d", i), d); err != nil {
				panic(err)
			}
		}
		// The query: a perturbed copy of one collection document.
		rng := rand.New(rand.NewSource(baseSeed + int64(nd)*13))
		query, _, err := gen.Perturb(rng, docs[len(docs)/2], 10, gen.DefaultMix)
		if err != nil {
			panic(err)
		}

		t0 := time.Now()
		matches := f.Lookup(query, tau)
		indexed := time.Since(t0)

		// On the fly: every tree's index is computed during the lookup
		// (the paper's comparison, where index construction dominates).
		t0 = time.Now()
		q := profile.BuildIndex(query, P33)
		onTheFly := 0
		for _, d := range docs {
			if q.Distance(profile.BuildIndex(d, P33)) < tau {
				onTheFly++
			}
		}
		fly := time.Since(t0)

		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%d", nd),
			Values: []string{
				fmt.Sprintf("%d", docs[0].Size()),
				ms(indexed), ms(fly), fmt.Sprintf("%d", len(matches)),
			},
		})
		if len(matches) != onTheFly {
			panic("bench: indexed and on-the-fly lookups disagree")
		}
	}
	return res
}

// Fig13Update regenerates Figure 13 (right): building the index from
// scratch versus updating it incrementally for a fixed log, over growing
// tree sizes. The build time grows linearly with the tree; the update time
// is nearly independent of it.
func Fig13Update(sizes []int, logOps int) *Result {
	res := &Result{
		Title:   "Figure 13 (right): index construction vs incremental update over tree size",
		Comment: fmt.Sprintf("XMark-shaped documents; log of %d edit operations", logOps),
		Header:  []string{"nodes", "build", "update", "build/update"},
	}
	for _, n := range sizes {
		doc := gen.XMark(int64(n), n)
		i0 := profile.BuildIndex(doc, P33)

		rng := rand.New(rand.NewSource(baseSeed + int64(n)*17))
		_, log, err := gen.RandomScript(rng, doc, logOps, gen.DefaultMix)
		if err != nil {
			panic(err)
		}

		t0 := time.Now()
		rebuilt := profile.BuildIndex(doc, P33)
		build := time.Since(t0)

		updated := i0.Clone() // off the clock; the paper updates in place
		t0 = time.Now()
		if _, err := core.UpdateIndexInPlace(updated, doc, log, P33); err != nil {
			panic(err)
		}
		update := time.Since(t0)

		if !updated.Equal(rebuilt) {
			panic("bench: incremental update diverged from rebuild")
		}
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%d", doc.Size()),
			Values: []string{
				ms(build), ms(update),
				fmt.Sprintf("%.1fx", float64(build)/float64(update)),
			},
		})
	}
	return res
}

// Fig14Size regenerates Figure 14 (left): the serialized size of the
// pq-gram index compared to the size of the document, for 1,2- and
// 3,3-grams, over growing tree sizes.
func Fig14Size(sizes []int) *Result {
	res := &Result{
		Title:   "Figure 14 (left): index size vs tree size",
		Comment: "XMark-shaped documents; document size = serialized XML bytes",
		Header:  []string{"nodes", "xml-bytes", "idx(1,2)", "idx(3,3)", "idx(3,3)/xml"},
	}
	for _, n := range sizes {
		doc := gen.XMark(int64(n), n)
		xml, err := xmlconv.WriteString(doc)
		if err != nil {
			panic(err)
		}
		size := func(pr profile.Params) int64 {
			f := forest.New(pr)
			if err := f.Add("doc", doc); err != nil {
				panic(err)
			}
			sz, err := store.Size(f)
			if err != nil {
				panic(err)
			}
			return sz
		}
		s12 := size(profile.Params{P: 1, Q: 2})
		s33 := size(P33)
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%d", doc.Size()),
			Values: []string{
				fmt.Sprintf("%d", len(xml)),
				fmt.Sprintf("%d", s12),
				fmt.Sprintf("%d", s33),
				fmt.Sprintf("%.3f", float64(s33)/float64(len(xml))),
			},
		})
	}
	return res
}

// Fig14Update regenerates Figure 14 (right): incremental update time as a
// function of the log size on a DBLP-shaped document.
func Fig14Update(docNodes int, logSizes []int) *Result {
	res := &Result{
		Title:   "Figure 14 (right): update time vs number of edit operations",
		Comment: fmt.Sprintf("DBLP-shaped document with ~%d nodes", docNodes),
		Header:  []string{"edits", "update", "per-edit"},
	}
	base := gen.DBLP(3, docNodes)
	i0 := profile.BuildIndex(base, P33)
	for _, ops := range logSizes {
		doc := base.Clone()
		rng := rand.New(rand.NewSource(baseSeed + int64(ops)*29))
		_, log, err := gen.RandomScript(rng, doc, ops, gen.DefaultMix)
		if err != nil {
			panic(err)
		}
		updated := i0.Clone() // off the clock; the paper updates in place
		t0 := time.Now()
		if _, err := core.UpdateIndexInPlace(updated, doc, log, P33); err != nil {
			panic(err)
		}
		update := time.Since(t0)
		if !updated.Equal(profile.BuildIndex(doc, P33)) {
			panic("bench: incremental update diverged from rebuild")
		}
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%d", ops),
			Values: []string{
				ms(update),
				fmt.Sprintf("%.3fms", float64(update.Microseconds())/1000/float64(ops)),
			},
		})
	}
	return res
}

// Table2 regenerates Table 2: the share of the individual maintenance
// steps (Δ⁺, λ(Δ⁺), Δ⁻, λ(Δ⁻), index update) in the overall update time,
// for logs of growing size on a DBLP-shaped document.
func Table2(docNodes int, logSizes []int) *Result {
	res := &Result{
		Title:   "Table 2: breakdown of the index update time",
		Comment: fmt.Sprintf("DBLP-shaped document with ~%d nodes; columns are log sizes", docNodes),
	}
	res.Header = []string{"action"}
	for _, ops := range logSizes {
		res.Header = append(res.Header, fmt.Sprintf("%d", ops))
	}
	base := gen.DBLP(4, docNodes)
	i0 := profile.BuildIndex(base, P33)

	stats := make([]core.Stats, len(logSizes))
	for i, ops := range logSizes {
		doc := base.Clone()
		rng := rand.New(rand.NewSource(baseSeed + int64(ops)*31))
		_, log, err := gen.RandomScript(rng, doc, ops, gen.DefaultMix)
		if err != nil {
			panic(err)
		}
		updated := i0.Clone() // off the clock; the paper updates in place
		st, err := core.UpdateIndexInPlace(updated, doc, log, P33)
		if err != nil {
			panic(err)
		}
		if !updated.Equal(profile.BuildIndex(doc, P33)) {
			panic("bench: incremental update diverged from rebuild")
		}
		stats[i] = st
	}
	row := func(label string, get func(core.Stats) time.Duration) {
		r := Row{Label: label}
		for _, st := range stats {
			r.Values = append(r.Values, ms(get(st)))
		}
		res.Rows = append(res.Rows, r)
	}
	row("Δ+", func(s core.Stats) time.Duration { return s.DeltaPlus })
	row("I+ = λ(Δ+)", func(s core.Stats) time.Duration { return s.LambdaPlus })
	row("Δ-", func(s core.Stats) time.Duration { return s.DeltaMinus })
	row("I- = λ(Δ-)", func(s core.Stats) time.Duration { return s.LambdaMinus })
	row("I0 \\ I- ⊎ I+", func(s core.Stats) time.Duration { return s.ApplyIndex })
	row("total", func(s core.Stats) time.Duration { return s.Total })
	return res
}

// AblationAnchorIndex measures §8.1's claim that the secondary index on
// the anchor IDs of the temporary tables gives a substantial advantage,
// by running the rewind phase with and without the parId index.
func AblationAnchorIndex(docNodes, logOps int) *Result {
	res := &Result{
		Title:   "Ablation: anchor-ID secondary index on the delta tables (§8.1)",
		Comment: fmt.Sprintf("XMark document with ~%d nodes, log of %d operations", docNodes, logOps),
		Header:  []string{"variant", "delta+rewind", ""},
	}
	doc := gen.XMark(6, docNodes)
	rng := rand.New(rand.NewSource(baseSeed + 41))
	_, log, err := gen.RandomScript(rng, doc, logOps, gen.DefaultMix)
	if err != nil {
		panic(err)
	}
	run := func(indexed bool) time.Duration {
		t0 := time.Now()
		tables := core.NewTablesIndexed(P33, indexed)
		for _, op := range log {
			tables.AddDelta(doc, op)
		}
		if err := tables.Rewind(log); err != nil {
			panic(err)
		}
		return time.Since(t0)
	}
	with := run(true)
	without := run(false)
	res.Rows = append(res.Rows,
		Row{Label: "with index", Values: []string{ms(with), ""}},
		Row{Label: "without index", Values: []string{ms(without), fmt.Sprintf("%.1fx slower", float64(without)/float64(with))}},
	)
	return res
}

// AblationOpMix measures how the composition of the log (inserts, deletes,
// renames) affects the update time.
func AblationOpMix(docNodes, logOps int) *Result {
	res := &Result{
		Title:   "Ablation: edit-operation mix vs update time",
		Comment: fmt.Sprintf("XMark document with ~%d nodes, logs of %d operations", docNodes, logOps),
		Header:  []string{"mix", "update", "Δ+ grams"},
	}
	mixes := []struct {
		name string
		mix  gen.OpMix
	}{
		{"renames only", gen.OpMix{Rename: 1}},
		{"inserts only", gen.OpMix{Insert: 1}},
		{"deletes only", gen.OpMix{Delete: 1}},
		{"even mix", gen.DefaultMix},
	}
	base := gen.XMark(8, docNodes)
	i0 := profile.BuildIndex(base, P33)
	for _, m := range mixes {
		doc := base.Clone()
		rng := rand.New(rand.NewSource(baseSeed + 43))
		_, log, err := gen.RandomScript(rng, doc, logOps, m.mix)
		if err != nil {
			panic(err)
		}
		updated, st, err := core.UpdateIndexStats(i0, doc, log, P33)
		if err != nil {
			panic(err)
		}
		if !updated.Equal(profile.BuildIndex(doc, P33)) {
			panic("bench: incremental update diverged from rebuild")
		}
		res.Rows = append(res.Rows, Row{
			Label:  m.name,
			Values: []string{ms(st.Total), fmt.Sprintf("%d", st.PlusGrams)},
		})
	}
	return res
}

// AblationPQ measures the approximation quality of different (p,q)
// parameterizations against the exact tree edit distance: the Spearman-like
// agreement between pq-gram rankings and TED rankings of perturbed trees.
func AblationPQ(docNodes, pairs int) *Result {
	res := &Result{
		Title:   "Ablation: (p,q) sensitivity of the distance quality",
		Comment: fmt.Sprintf("ranking agreement with tree edit distance over %d tree pairs of ~%d nodes", pairs, docNodes),
		Header:  []string{"p,q", "agreement", "avg dist"},
	}
	params := []profile.Params{{P: 1, Q: 1}, {P: 1, Q: 2}, {P: 2, Q: 2}, {P: 3, Q: 3}, {P: 4, Q: 4}}
	rng := rand.New(rand.NewSource(baseSeed + 47))

	type pair struct {
		a, b *tree.Tree
		ted  int
	}
	var ps []pair
	base := gen.XMark(9, docNodes)
	for i := 0; i < pairs; i++ {
		mutant, _, err := gen.Perturb(rng, base, 1+rng.Intn(30), gen.DefaultMix)
		if err != nil {
			panic(err)
		}
		ps = append(ps, pair{base, mutant, tedDistance(base, mutant)})
	}
	for _, pr := range params {
		agree, total := 0, 0
		sum := 0.0
		dists := make([]float64, len(ps))
		for i, p := range ps {
			dists[i] = profile.Distance(p.a, p.b, pr)
			sum += dists[i]
		}
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				if ps[i].ted == ps[j].ted {
					continue
				}
				total++
				if (ps[i].ted < ps[j].ted) == (dists[i] < dists[j]) {
					agree++
				}
			}
		}
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%d,%d", pr.P, pr.Q),
			Values: []string{
				fmt.Sprintf("%.1f%%", 100*float64(agree)/float64(total)),
				fmt.Sprintf("%.3f", sum/float64(len(ps))),
			},
		})
	}
	return res
}
