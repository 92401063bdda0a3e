package xmlconv

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"

	"pqgram/internal/fingerprint"
	"pqgram/internal/profile"
)

// StreamIndex computes the pq-gram index of an XML document directly from
// the token stream, without materializing the tree. Memory is bounded by
// the document depth plus the child counts along one root path — for the
// paper's DBLP scale (211MB, 11M nodes) this is a few megabytes instead of
// gigabytes. The result is identical to Parse followed by
// profile.BuildIndex with the same options, and it fails on exactly the
// inputs Parse rejects.
func StreamIndex(r io.Reader, opts Options, pr profile.Params) (profile.Index, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	dec := xml.NewDecoder(r)
	s := &streamer{pr: pr, idx: make(profile.Index), tuple: make([]fingerprint.Hash, pr.Len())}
	sawRoot := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlconv: %w", err)
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			if len(s.stack) == 0 {
				if sawRoot {
					return nil, fmt.Errorf("xmlconv: multiple root elements")
				}
				sawRoot = true
			}
			s.stack = append(s.stack, frame{label: fingerprint.Of(tk.Name.Local), start: len(s.kids)})
			if !opts.SkipAttributes && len(tk.Attr) > 0 {
				attrs := make([]xml.Attr, len(tk.Attr))
				copy(attrs, tk.Attr)
				sort.Slice(attrs, func(i, j int) bool {
					return attrs[i].Name.Local < attrs[j].Name.Local
				})
				for _, a := range attrs {
					s.lab = append(append(append(append(s.lab[:0], '@'), a.Name.Local...), '='), a.Value...)
					s.leafChild(fingerprint.Of(string(s.lab)))
				}
			}
		case xml.EndElement:
			if len(s.stack) == 0 {
				return nil, fmt.Errorf("xmlconv: unbalanced end element %s", tk.Name.Local)
			}
			s.close()
		case xml.CharData:
			if opts.SkipText || len(s.stack) == 0 {
				continue
			}
			if !opts.KeepWhitespaceText && len(bytes.TrimSpace(tk)) == 0 {
				continue
			}
			s.lab = append(append(s.lab[:0], '='), tk...)
			s.leafChild(fingerprint.Of(string(s.lab)))
		}
	}
	if !sawRoot {
		return nil, fmt.Errorf("xmlconv: no root element")
	}
	if len(s.stack) != 0 {
		return nil, fmt.Errorf("xmlconv: %d unclosed elements", len(s.stack))
	}
	return s.idx, nil
}

// frame is one open element: its label fingerprint and where its children
// begin in streamer.kids.
type frame struct {
	label fingerprint.Hash
	start int
}

// streamer holds the state of one StreamIndex pass. The children seen so
// far of every open element live in one shared slice, kids: a frame's
// children run from its start to the next frame's start (to the end for
// the innermost frame), because an element's own children are dropped
// before its label is appended to its parent's. tuple and lab are scratch
// buffers reused by every emitted pq-gram and leaf label.
type streamer struct {
	pr    profile.Params
	idx   profile.Index
	stack []frame
	kids  []fingerprint.Hash
	tuple []fingerprint.Hash
	lab   []byte
}

// register writes the labels of the innermost len(dst) open elements into
// dst, innermost last, padding with Null where the stack is shallower (the
// null ancestors of the extended tree).
func (s *streamer) register(dst []fingerprint.Hash) {
	off := len(s.stack) - len(dst)
	for i := range dst {
		if off+i >= 0 {
			dst[i] = s.stack[off+i].label
		} else {
			dst[i] = fingerprint.Null
		}
	}
}

// leafChild records a leaf (attribute or text) with label fingerprint h
// under the current element and emits its single pq-gram: the last p-1
// open labels, the leaf, and an all-null q-part.
func (s *streamer) leafChild(h fingerprint.Hash) {
	p := s.pr.P
	s.kids = append(s.kids, h)
	s.register(s.tuple[:p-1])
	s.tuple[p-1] = h
	clear(s.tuple[p:])
	s.idx.Add(profile.TupleOf(s.tuple...))
}

// close pops the current element, emitting its anchor pq-grams.
func (s *streamer) close() {
	p, q := s.pr.P, s.pr.Q
	top := len(s.stack) - 1
	f := s.stack[top]
	s.register(s.tuple[:p])
	kids := s.kids[f.start:]
	if len(kids) == 0 {
		// Leaf element: single all-null q-part.
		clear(s.tuple[p:])
		s.idx.Add(profile.TupleOf(s.tuple...))
	} else {
		// Slide a q-window over •^{q-1} ++ kids ++ •^{q-1}; st is the
		// window's first position in kids, negative inside the padding.
		for st := 1 - q; st < len(kids); st++ {
			for j := 0; j < q; j++ {
				if c := st + j; c >= 0 && c < len(kids) {
					s.tuple[p+j] = kids[c]
				} else {
					s.tuple[p+j] = fingerprint.Null
				}
			}
			s.idx.Add(profile.TupleOf(s.tuple...))
		}
	}
	s.stack = s.stack[:top]
	s.kids = s.kids[:f.start]
	if top > 0 {
		s.kids = append(s.kids, f.label)
	}
}
