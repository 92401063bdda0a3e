package xmlconv

import (
	"strings"
	"testing"

	"pqgram/internal/gen"
	"pqgram/internal/profile"
)

// streamMatchesTreeBuild asserts that StreamIndex equals parsing the tree
// and building the index from it.
func streamMatchesTreeBuild(t *testing.T, doc string, opts Options, pr profile.Params) {
	t.Helper()
	tr, err := ParseString(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := profile.BuildIndex(tr, pr)
	got, err := StreamIndex(strings.NewReader(doc), opts, pr)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("stream index differs from tree build (doc %q, params %v): %d vs %d tuples",
			truncate(doc), pr, got.Size(), want.Size())
	}
}

func truncate(s string) string {
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}

func TestStreamIndexSmallDocs(t *testing.T) {
	docs := []string{
		`<a/>`,
		`<a><b/></a>`,
		`<a><b/><c/><d/></a>`,
		`<a x="1" y="2"><b>text</b>tail</a>`,
		`<a><b><c><d><e/></d></c></b></a>`,
		`<r>one<m/>two<m/>three</r>`,
	}
	params := []profile.Params{{P: 1, Q: 1}, {P: 1, Q: 2}, {P: 2, Q: 2}, {P: 3, Q: 3}, {P: 4, Q: 2}, {P: 2, Q: 4}}
	for _, doc := range docs {
		for _, pr := range params {
			streamMatchesTreeBuild(t, doc, Options{}, pr)
		}
	}
}

func TestStreamIndexOptions(t *testing.T) {
	doc := `<a x="1">hello<b y="2"> </b></a>`
	for _, opts := range []Options{
		{},
		{SkipAttributes: true},
		{SkipText: true},
		{SkipAttributes: true, SkipText: true},
		{KeepWhitespaceText: true},
	} {
		streamMatchesTreeBuild(t, doc, opts, profile.Params{P: 3, Q: 3})
	}
}

func TestStreamIndexGeneratedDocs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		var doc string
		var err error
		if seed%2 == 0 {
			doc, err = WriteString(gen.XMark(seed, 2000))
		} else {
			doc, err = WriteString(gen.DBLP(seed, 2000))
		}
		if err != nil {
			t.Fatal(err)
		}
		streamMatchesTreeBuild(t, doc, Options{}, profile.Params{P: 3, Q: 3})
		streamMatchesTreeBuild(t, doc, Options{}, profile.Params{P: 1, Q: 2})
	}
}

func TestStreamIndexErrors(t *testing.T) {
	bad := []string{``, `<a>`, `</a>`, `<a/><b/>`, `text`}
	for _, doc := range bad {
		if _, err := StreamIndex(strings.NewReader(doc), Options{}, profile.Params{P: 3, Q: 3}); err == nil {
			t.Errorf("StreamIndex(%q) succeeded", doc)
		}
	}
	if _, err := StreamIndex(strings.NewReader(`<a/>`), Options{}, profile.Params{P: 0, Q: 3}); err == nil {
		t.Error("invalid params accepted")
	}
}

// FuzzStreamIndex holds StreamIndex to Parse + BuildIndex on arbitrary
// input: it fails exactly when ParseString does, and otherwise builds the
// same bag. The serving tier's "400 bad query document" contract rests on
// StreamIndex, so this is what keeps it equal to the tree path's. Wired
// into `make fuzz`.
func FuzzStreamIndex(f *testing.F) {
	for _, doc := range []string{``, `<a>`, `</a>`, `<a/><b/>`, `text`, `<a x="1" y="2"><b>text</b>tail<c/></a>`} {
		f.Add(doc)
	}
	doc, err := WriteString(gen.DBLP(3, 60))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)

	f.Fuzz(func(t *testing.T, doc string) {
		got, serr := StreamIndex(strings.NewReader(doc), Options{}, profile.Default)
		tr, perr := ParseString(doc, Options{})
		if (serr == nil) != (perr == nil) {
			t.Fatalf("StreamIndex error %v, ParseString error %v", serr, perr)
		}
		if perr != nil {
			return
		}
		if want := profile.BuildIndex(tr, profile.Default); !got.Equal(want) {
			t.Fatalf("stream bag differs from tree build: %d vs %d tuples", got.Size(), want.Size())
		}
	})
}

func BenchmarkStreamIndex(b *testing.B) {
	doc, err := WriteString(gen.DBLP(1, 50000))
	if err != nil {
		b.Fatal(err)
	}
	pr := profile.Params{P: 3, Q: 3}
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := StreamIndex(strings.NewReader(doc), Options{}, pr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree-then-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := ParseString(doc, Options{})
			if err != nil {
				b.Fatal(err)
			}
			_ = profile.BuildIndex(tr, pr)
		}
	})
}
