// The benchmark's own span recorder. Spans are recorded around the calls
// into each layer from the benchmark's side of the boundary, kept in
// memory, and written out when the run ends. Nothing here touches the
// system's own tracing.

package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval. Parent is the index of the span that caused
// it (-1 for a root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder collects spans from a single goroutine. A nil recorder
// records nothing, which is how the untraced comparison pass runs the
// same code.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, to be passed to end and used
// as the parent of spans it causes.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = time.Since(r.t0).Nanoseconds()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other or stick out of the parent; covered time is the measure of the
// union of their intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := int64(0), s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			covered += v.hi - max(v.lo, edge)
			edge = v.hi
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// durationsUS gathers the durations, in microseconds, of the spans keep
// accepts.
func (r *recorder) durationsUS(keep func(*span) bool) []float64 {
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; keep(s) {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func named(name string) func(*span) bool {
	return func(s *span) bool { return s.Name == name }
}

func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
