// Input generation. Everything the server will see — the corpus, every
// request body, the order each client sends them in — is derived from
// the seed and serialised to bytes here, before any server starts. The
// server receives only those bytes.
//
// Generation is stratified rather than freely random wherever the
// system's cost depends on the drawn value (document size, which
// document a query resembles, τ, k): each seed then covers the same
// range with different documents, so a metric's seed-to-seed spread
// reflects the system and the machine, not the luck of the draw.

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// Workload sizes at -scale 1. Sequence lengths are independent of
// --seconds so that a seed names one input set; a window that outlasts a
// read sequence wraps around it, which costs no cache hit because every
// cycle is longer than the server's result cache (1024 entries).
const (
	corpusClusters = 256
	clusterSize    = 8
	minNodes       = 64
	maxNodes       = 512
	numClients     = 2

	coldQueries = 4096 // distinct /lookup queries of read_cold and read_segments
	topkQueries = 2560 // distinct /topk queries of topk_cold
	hotPool     = 256  // query pool of read_hot and of write_mix's reads
	hotDraws    = 32768
	mixOps      = 12288 // write_mix operations, both clients together
	zipfS       = 1.1
	writeEvery  = 4  // write_mix: 1 operation in 4 is a write
	verifyEvery = 16 // write_mix: 1 write in 16 is read back at once
	selfTau     = 1e-6
)

// Parameter cycles. A request's cost follows its τ or k, so a latency
// distribution over a cycle has one mode per value. The cycles are
// chosen so that the median and p95 fall inside a mode, not on the edge
// between two, where a small shift would flip them from one mode to the
// next: τ=0.3 takes ranks 20–60 % and τ=0.7 ranks 80–100 %; k=10 takes
// ranks 33–67 % and k=25 ranks 67–100 %.
var (
	coldTaus = []float64{0.1, 0.3, 0.5, 0.7, 0.3}
	topKs    = []int{1, 10, 25}
)

const hotTau = 0.3

type opKind uint8

const (
	opLookup opKind = iota
	opTopK
	opPut
	opEdits
	opDelete
)

func (k opKind) String() string {
	return [...]string{"lookup", "topk", "put", "edits", "delete"}[k]
}

func (k opKind) isWrite() bool { return k >= opPut }

// op is one HTTP request, ready to send, plus what the benchmark needs to
// check the reply.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte

	tau float64 // lookup
	k   int     // topk

	// Writes: the document id and its content after the write (nil after
	// a delete), which the oracle applies when the write is acknowledged.
	id  string
	xml []byte

	// selfID marks the read-back of the write just acknowledged: the
	// reply must hold selfID at distance 0.
	selfID string
}

type document struct {
	id    string
	xml   []byte
	nodes int
}

// inputs is one workload's complete, seed-derived input set.
type inputs struct {
	corpus  []document
	warm    [numClients][]op
	measure [numClients][]op
	cyclic  bool // a client that reaches the end of measure starts over
	sha256  string
}

type lookupBody struct {
	XML string  `json:"xml"`
	Tau float64 `json:"tau"`
}

type topkBody struct {
	XML string `json:"xml"`
	K   int    `json:"k"`
}

type editsBody struct {
	XML string   `json:"xml"`
	IDs []int64  `json:"ids"`
	Log []string `json:"log"`
}

// mustJSON encodes a request body the way a client outside Go would:
// '<' and '>' stay as they are instead of becoming \\u003c escapes, which
// would triple the size of an XML payload and the server's decode time.
func mustJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // only plain structs of strings and numbers reach here
	}
	return bytes.TrimRight(buf.Bytes(), "\n")
}

// generator holds the seed-derived corpus as trees, from which queries
// and write payloads are perturbed.
type generator struct {
	seed      int64
	scale     float64
	trees     []*Tree
	corpus    []document
	byStratum []int // size stratum (ascending) -> cluster

	// Query sets that two workloads share, built on first use.
	cold, hot []op
}

func scaled(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		v = floor
	}
	return v
}

// subRNG gives each purpose its own stream, so that adding draws to one
// part of the generator never shifts another.
func (g *generator) subRNG(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(g.seed*1_000_003 + purpose*7919 + 17))
}

// itemRNG gives item i of a purpose its own stream, so that items can be
// generated on several CPUs and still come out the same.
func (g *generator) itemRNG(purpose int64, i int) *rand.Rand {
	return rand.New(rand.NewSource((g.seed*1_000_003+purpose*7919+17)*2_000_003 + int64(i)))
}

// xmlFaithful serialises t and confirms the bytes parse back to the same
// document: the server indexes what it parses, so a tree that changes in
// the round trip would make the edit logs and the oracle disagree with it.
func xmlFaithful(t *Tree) ([]byte, bool) {
	s, err := treeXML(t)
	if err != nil {
		return nil, false
	}
	back, err := parseXML(s)
	if err != nil || !sameDocument(back, t) {
		return nil, false
	}
	return []byte(s), true
}

// perturbFaithful draws perturbations of t until one survives the XML
// round trip. Node identities of the result are those of t plus fresh
// ones, so the returned log is valid against the returned tree.
func perturbFaithful(rng *rand.Rand, t *Tree, edits int) (*Tree, EditLog, []byte) {
	for attempt := 0; attempt < 64; attempt++ {
		c, log, err := perturb(rng, t, edits)
		if err != nil {
			continue
		}
		if x, ok := xmlFaithful(c); ok {
			return c, log, x
		}
	}
	panic(fmt.Sprintf("inputs: no XML-faithful perturbation of a %d-node document in 64 draws", treeNodes(t)))
}

// newGenerator builds the corpus: clusters of near-duplicates whose node
// counts are spread log-uniformly over [minNodes, maxNodes], one stratum
// per cluster, so the planner's size filter has something to prune.
func newGenerator(seed int64, scale float64) *generator {
	g := &generator{seed: seed, scale: scale}
	clusters := scaled(corpusClusters, scale, 4)
	strata := g.subRNG(1).Perm(clusters)
	g.byStratum = make([]int, clusters)
	for c, st := range strata {
		g.byStratum[st] = c
	}
	ratio := float64(maxNodes) / float64(minNodes)
	g.trees = make([]*Tree, clusters*clusterSize)
	g.corpus = make([]document, clusters*clusterSize)
	parallel(clusters, func(c int) {
		rng := g.itemRNG(1, c)
		nodes := int(float64(minNodes) * math.Pow(ratio, (float64(strata[c])+0.5)/float64(clusters)))
		var base *Tree
		var x []byte
		for try := 0; ; try++ {
			base = genBase(c, rng.Int63(), nodes)
			var ok bool
			if x, ok = xmlFaithful(base); ok {
				break
			}
			if try > 64 {
				panic("inputs: generator produced no XML-faithful base document in 64 draws")
			}
		}
		for m := 0; m < clusterSize; m++ {
			t := base
			if m > 0 {
				t, _, x = perturbFaithful(rng, base, 1+rng.Intn(8))
			}
			i := c*clusterSize + m
			g.trees[i] = t
			g.corpus[i] = document{id: fmt.Sprintf("doc-%05d", i), xml: x, nodes: treeNodes(t)}
		}
	})
	return g
}

// parallel runs fn(0..n-1) on every CPU. Each item draws from its own
// RNG stream, so the result does not depend on how items are scheduled.
func parallel(n int, fn func(i int)) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// queryXML is a perturbed copy (1–5 edits) of corpus document i.
func (g *generator) queryXML(rng *rand.Rand, i int) string {
	_, _, x := perturbFaithful(rng, g.trees[i], 1+rng.Intn(5))
	return string(x)
}

func lookupOp(xml string, tau float64) op {
	return op{kind: opLookup, method: "POST", path: "/lookup", tau: tau,
		body: mustJSON(lookupBody{XML: xml, Tau: tau})}
}

func topkOp(xml string, k int) op {
	return op{kind: opTopK, method: "POST", path: "/topk", k: k,
		body: mustJSON(topkBody{XML: xml, K: k})}
}

// split deals a sequence round-robin to the clients.
func split(seq []op) (out [numClients][]op) {
	for i, o := range seq {
		out[i%numClients] = append(out[i%numClients], o)
	}
	return out
}

// distinctReads builds n distinct queries, to be dealt round-robin to the
// clients. Targets walk a permutation of the corpus, so a full pass
// covers every document once; mk receives the query's position in its
// client's sequence, so parameters that cycle on it cycle for each client.
func (g *generator) distinctReads(purpose int64, n int, mk func(xml string, i int) op) []op {
	perm := g.subRNG(purpose).Perm(len(g.trees))
	seq := make([]op, n)
	parallel(n, func(i int) {
		seq[i] = mk(g.queryXML(g.itemRNG(purpose, i), perm[i%len(perm)]), i/numClients)
	})
	return seq
}

func (g *generator) coldLookups() []op {
	if g.cold == nil {
		g.cold = g.distinctReads(2, scaled(coldQueries, g.scale, 64), func(xml string, i int) op {
			return lookupOp(xml, coldTaus[i%len(coldTaus)])
		})
	}
	return g.cold
}

// hotQueries is the small pool read_hot and write_mix draw from, in Zipf
// rank order. A Zipf(1.1) draw sends half of all requests to the first
// ten ranks, so which documents those are decides the workload's cost;
// rank r therefore always resembles a document from the same size
// stratum (the bit-reversal of r, so that every run of ranks spans the
// whole size range), and the seed only chooses which document that is.
func (g *generator) hotQueries() []op {
	if g.hot != nil {
		return g.hot
	}
	n := scaled(hotPool, g.scale, 16)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	clusters := len(g.trees) / clusterSize
	seq := make([]op, n)
	parallel(n, func(r int) {
		rev := 0
		for b := 0; b < bits; b++ {
			rev |= (r >> b & 1) << (bits - 1 - b)
		}
		rng := g.itemRNG(3, r)
		cluster := g.byStratum[rev*clusters/(1<<bits)]
		seq[r] = lookupOp(g.queryXML(rng, cluster*clusterSize+rng.Intn(clusterSize)), hotTau)
	})
	g.hot = seq
	return seq
}

// zipfDraws draws n pool indices with P(rank r) ∝ 1/r^s.
func zipfDraws(rng *rand.Rand, pool, n int, s float64) []int {
	cdf := make([]float64, pool)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	out := make([]int, n)
	for i := range out {
		out[i] = sort.SearchFloat64s(cdf, rng.Float64()*sum)
		if out[i] >= pool {
			out[i] = pool - 1
		}
	}
	return out
}

// generate builds the inputs of one workload.
func (g *generator) generate(w *workload) *inputs {
	in := &inputs{corpus: g.corpus, cyclic: true}
	switch w.name {
	case "read_cold", "read_segments":
		in.measure = split(g.coldLookups())
		in.warmFromTail(w)
	case "topk_cold":
		in.measure = split(g.distinctReads(4, scaled(topkQueries, g.scale, 32), func(xml string, i int) op {
			return topkOp(xml, topKs[i%len(topKs)])
		}))
		in.warmFromTail(w)
	case "read_hot":
		pool := g.hotQueries()
		draws := scaled(hotDraws, g.scale, 256)
		for c := range in.measure {
			rng := g.subRNG(10 + int64(c))
			for _, i := range zipfDraws(rng, len(pool), draws/numClients, zipfS) {
				in.measure[c] = append(in.measure[c], pool[i])
			}
		}
		in.warmFromPool(pool, w)
	case "write_mix":
		in.cyclic = false
		g.writeMix(in, w)
	default:
		panic("inputs: unknown workload " + w.name)
	}
	in.sha256 = in.digest()
	return in
}

// warmFromTail makes the warm-up the far end of each client's measured
// cycle, so that warm-up and window together never repeat a query within
// a cache's reach.
func (in *inputs) warmFromTail(w *workload) {
	for c, seq := range in.measure {
		n := min(len(seq), w.warmup/numClients)
		in.warm[c] = seq[len(seq)-n:]
	}
}

// warmFromPool makes the warm-up a walk over the whole pool, so that the
// window starts with every query cached rather than the Zipf head only.
func (in *inputs) warmFromPool(pool []op, w *workload) {
	for c := range in.warm {
		for i := 0; i < w.warmup/numClients; i++ {
			in.warm[c] = append(in.warm[c], pool[(i*numClients+c)%len(pool)])
		}
	}
}

// writeMix builds the read/write sequences. Each client owns the
// documents whose index is congruent to it and walks a shuffled cycle of
// them, so the final corpus does not depend on how the two clients
// interleave and no document is written twice within one flush epoch
// (the store's flush threshold counts distinct dirty documents).
func (g *generator) writeMix(in *inputs, w *workload) {
	pool := g.hotQueries()
	total := scaled(mixOps, g.scale, 256)
	parallel(numClients, func(c int) {
		rng := g.subRNG(20 + int64(c))
		var own []int
		for i := range g.trees {
			if i%numClients == c {
				own = append(own, i)
			}
		}
		rng.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
		state := make(map[int]*Tree, len(own)) // current content; absent = untouched corpus tree
		dead := make(map[int]bool)
		draws := zipfDraws(rng, len(pool), total/numClients, zipfS)
		walk, writes, fresh := 0, 0, 0
		var seq []op
		for i := 0; len(seq) < total/numClients; i++ {
			if i%writeEvery != writeEvery-1 {
				seq = append(seq, pool[draws[i]])
				continue
			}
			di := own[walk%len(own)]
			id := g.corpus[di].id
			cur := state[di]
			if cur == nil {
				cur = g.trees[di]
			}
			var o op
			roll := rng.Intn(100)
			switch {
			case dead[di] || roll >= 60 && roll < 85: // PUT replace (the only write a deleted id accepts)
				t, _, x := perturbFaithful(rng, g.trees[di], 1+rng.Intn(8))
				o = op{kind: opPut, method: "PUT", path: "/docs/" + id, body: x, id: id, xml: x}
				state[di], dead[di] = t, false
				walk++
			case roll < 60: // incremental maintenance from an edit log
				t, log, x := perturbFaithful(rng, cur, 1+rng.Intn(8))
				o = op{kind: opEdits, method: "POST", path: "/docs/" + id + "/edits", id: id, xml: x,
					body: mustJSON(editsBody{XML: string(x), IDs: treeIDs(t), Log: logLines(log)})}
				state[di] = t
				walk++
			case roll < 95: // PUT under a new id
				_, _, x := perturbFaithful(rng, g.trees[di], 1+rng.Intn(8))
				nid := fmt.Sprintf("new-%d-%05d", c, fresh)
				fresh++
				o = op{kind: opPut, method: "PUT", path: "/docs/" + nid, body: x, id: nid, xml: x}
			default:
				o = op{kind: opDelete, method: "DELETE", path: "/docs/" + id, id: id}
				dead[di] = true
				delete(state, di)
				walk++
			}
			seq = append(seq, o)
			writes++
			if writes%verifyEvery == 0 && o.xml != nil {
				rb := lookupOp(string(o.xml), selfTau)
				rb.selfID = o.id
				seq = append(seq, rb)
			}
		}
		in.measure[c] = seq
	})
	in.warmFromPool(pool, w)
}

// digest hashes everything the server will be sent, in order. A body
// sent many times (the hot pool) is hashed once and its hash repeated.
func (in *inputs) digest() string {
	h := sha256.New()
	bodyHash := make(map[*byte][sha256.Size]byte)
	sum := func(b []byte) [sha256.Size]byte {
		if len(b) == 0 {
			return sha256.Sum256(nil)
		}
		s, ok := bodyHash[&b[0]]
		if !ok {
			s = sha256.Sum256(b)
			bodyHash[&b[0]] = s
		}
		return s
	}
	for _, d := range in.corpus {
		fmt.Fprintf(h, "doc %s %d\n", d.id, len(d.xml))
		h.Write(d.xml)
	}
	for _, phase := range [][numClients][]op{in.warm, in.measure} {
		for c, seq := range phase {
			fmt.Fprintf(h, "client %d %d\n", c, len(seq))
			for _, o := range seq {
				s := sum(o.body)
				fmt.Fprintf(h, "%s %s %d %x\n", o.method, o.path, len(o.body), s[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracle builds the benchmark's answer set for the untouched corpus.
func (g *generator) oracle() (*oracle, error) {
	bags := make([]*flatBag, len(g.corpus))
	errs := make([]error, len(g.corpus))
	parallel(len(g.corpus), func(i int) {
		bags[i], errs[i] = flatBagOfXML(string(g.corpus[i].xml))
	})
	or := newOracle()
	for i, d := range g.corpus {
		if errs[i] != nil {
			return nil, fmt.Errorf("oracle: document %s: %w", d.id, errs[i])
		}
		or.docs[d.id], or.content[d.id] = bags[i], d.xml
	}
	return or, nil
}
