// The benchmark's own answer to every query: a brute-force bag
// intersection of the query with every live document. It shares no code
// with the index under test beyond profile.BuildIndex, which defines what
// a document's bag is.

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// flatBag is a bag as parallel slices sorted by tuple, so that two bags
// intersect in one merge pass.
type flatBag struct {
	tuples []uint64
	counts []int32
	size   int
}

type byTuple struct{ b *flatBag }

func (s byTuple) Len() int           { return len(s.b.tuples) }
func (s byTuple) Less(i, j int) bool { return s.b.tuples[i] < s.b.tuples[j] }
func (s byTuple) Swap(i, j int) {
	s.b.tuples[i], s.b.tuples[j] = s.b.tuples[j], s.b.tuples[i]
	s.b.counts[i], s.b.counts[j] = s.b.counts[j], s.b.counts[i]
}

func flatBagOfXML(xml string) (*flatBag, error) {
	t, err := parseXML(xml)
	if err != nil {
		return nil, err
	}
	bag := buildBag(t)
	b := &flatBag{size: bagSize(bag)}
	b.tuples, b.counts = flattenBag(bag)
	sort.Sort(byTuple{b})
	return b, nil
}

// overlap is the bag intersection size Σ min(count_a, count_b).
func overlap(a, b *flatBag) int {
	ov, i, j := 0, 0, 0
	for i < len(a.tuples) && j < len(b.tuples) {
		switch {
		case a.tuples[i] < b.tuples[j]:
			i++
		case a.tuples[i] > b.tuples[j]:
			j++
		default:
			ov += int(min(a.counts[i], b.counts[j]))
			i++
			j++
		}
	}
	return ov
}

// pqDistance is the pq-gram distance 1 − 2·|A ∩ B| / (|A| + |B|).
func pqDistance(a, b *flatBag) float64 {
	u := a.size + b.size
	if u == 0 {
		return 0
	}
	return 1 - 2*float64(overlap(a, b))/float64(u)
}

// match is one result as the server encodes it.
type match struct {
	TreeID   string
	Distance float64
}

func sortMatches(ms []match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Distance != ms[j].Distance {
			return ms[i].Distance < ms[j].Distance
		}
		return ms[i].TreeID < ms[j].TreeID
	})
}

// oracle is the set of live documents. It is not safe for concurrent
// use; the load generator applies acknowledged writes to it after the
// window, in an order that does not matter because the clients own
// disjoint documents.
type oracle struct {
	docs    map[string]*flatBag
	content map[string][]byte // the XML each live document was last written with
}

func newOracle() *oracle {
	return &oracle{docs: make(map[string]*flatBag), content: make(map[string][]byte)}
}

// clone copies the document set; bags and content are immutable and shared.
func (o *oracle) clone() *oracle {
	c := newOracle()
	for id, b := range o.docs {
		c.docs[id] = b
		c.content[id] = o.content[id]
	}
	return c
}

func (o *oracle) put(id string, xml []byte) error {
	b, err := flatBagOfXML(string(xml))
	if err != nil {
		return fmt.Errorf("oracle: document %s: %w", id, err)
	}
	o.docs[id] = b
	o.content[id] = xml
	return nil
}

func (o *oracle) remove(id string) {
	delete(o.docs, id)
	delete(o.content, id)
}

// apply replays an acknowledged write.
func (o *oracle) apply(w *op) error {
	if w.kind == opDelete {
		o.remove(w.id)
		return nil
	}
	return o.put(w.id, w.xml)
}

// liveBytes is the user data the index currently represents.
func (o *oracle) liveBytes() int {
	n := 0
	for _, x := range o.content {
		n += len(x)
	}
	return n
}

// lookup is {T | dist(q, T) < tau}, nearest first, ties by id.
func (o *oracle) lookup(q *flatBag, tau float64) []match {
	var out []match
	for id, d := range o.docs {
		if dist := pqDistance(q, d); dist < tau {
			out = append(out, match{id, dist})
		}
	}
	sortMatches(out)
	return out
}

// topk is the k nearest documents, ties by id.
func (o *oracle) topk(q *flatBag, k int) []match {
	out := make([]match, 0, len(o.docs))
	for id, d := range o.docs {
		out = append(out, match{id, pqDistance(q, d)})
	}
	sortMatches(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// --- reply checking -----------------------------------------------------

// decodeReply parses a /lookup or /topk response body.
func decodeReply(kind opKind, body []byte) ([]match, error) {
	if kind == opTopK {
		var r struct {
			K       int     `json:"k"`
			Matches []match `json:"matches"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return r.Matches, nil
	}
	var ms []match
	if err := json.Unmarshal(body, &ms); err != nil {
		return nil, err
	}
	return ms, nil
}

// checkInvariants verifies what must hold of any reply whatever the
// corpus: sorted by distance then id, every distance within the
// threshold, at most k results, and the read-back of a write present at
// distance 0.
func checkInvariants(o *op, ms []match) error {
	for i, m := range ms {
		if math.IsNaN(m.Distance) || m.Distance < 0 || m.Distance > 1 {
			return fmt.Errorf("result %d: distance %v outside [0, 1]", i, m.Distance)
		}
		if o.kind == opLookup && m.Distance > o.tau {
			return fmt.Errorf("result %d: distance %v above tau %v", i, m.Distance, o.tau)
		}
		if i > 0 {
			p := ms[i-1]
			if p.Distance > m.Distance || p.Distance == m.Distance && p.TreeID >= m.TreeID {
				return fmt.Errorf("results %d and %d out of order", i-1, i)
			}
		}
	}
	if o.kind == opTopK && len(ms) > o.k {
		return fmt.Errorf("%d results for k=%d", len(ms), o.k)
	}
	if o.selfID != "" {
		for _, m := range ms {
			if m.TreeID == o.selfID && m.Distance == 0 {
				return nil
			}
		}
		return fmt.Errorf("write to %s acknowledged but not read back at distance 0", o.selfID)
	}
	return nil
}

// queryBag recovers the query document from a read's request body.
func queryBag(o *op) (*flatBag, error) {
	var b struct {
		XML string `json:"xml"`
	}
	if err := json.Unmarshal(o.body, &b); err != nil {
		return nil, err
	}
	return flatBagOfXML(b.XML)
}

// checkAgainst compares a reply with the oracle's answer for the same
// query over the oracle's current documents.
func (or *oracle) checkAgainst(o *op, got []match) error {
	q, err := queryBag(o)
	if err != nil {
		return err
	}
	var want []match
	if o.kind == opTopK {
		want = or.topk(q, o.k)
	} else {
		want = or.lookup(q, o.tau)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d results, oracle has %d", o.kind, len(got), len(want))
	}
	for i := range want {
		if got[i].TreeID != want[i].TreeID || math.Abs(got[i].Distance-want[i].Distance) > 1e-12 {
			return fmt.Errorf("%s: result %d is %s@%v, oracle has %s@%v",
				o.kind, i, got[i].TreeID, got[i].Distance, want[i].TreeID, want[i].Distance)
		}
	}
	return nil
}
