// The HTTP surface of the serving tier. Every query endpoint routes
// through Server.query — admission control, then the result cache — and
// mutations route through Server.Put/Remove/Update so the
// journal (when store-backed) and the epoch-based cache invalidation are
// shared with programmatic callers.
//
// Endpoints (JSON unless noted):
//
//	PUT    /docs/{id}          body: XML                  index a document
//	DELETE /docs/{id}                                     drop a document
//	POST   /docs/{id}/edits    {"xml","ids","log"}        incremental update
//	POST   /lookup             {"xml","tau","top"}        approximate lookup
//	POST   /topk               {"xml","k"}                k nearest via the planner
//	POST   /explain            {"xml","tau","k"}          run a query traced; plan + work counters
//	GET    /stats                                         index, serving-tier and store statistics
//	GET    /debug/metrics                                 live metrics snapshot (?format=prom)
//	GET    /debug/trace[?n=16]                            recent query traces
//	GET    /debug/vars                                    expvar (includes "pqgram")
//	GET    /debug/pprof/...                               CPU/heap/goroutine profiles
//
// Input validation is strict — malformed JSON and out-of-range τ or k
// answer 4xx, never 5xx or a panic; the fuzz target FuzzServeRequest
// holds the service to that contract. A DELETE or an edit log naming an
// id that is not indexed answers 404; a DELETE the store fails to
// journal answers 500. Unknown JSON fields are ignored,
// "plan" among them: every lookup takes the one path. Shed requests
// answer 429 with a Retry-After hint; answered lookups carry an X-Cache
// header (hit or miss) so load generators can attribute latency to the
// tier that produced it.

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pqgram/internal/edit"
	"pqgram/internal/forest"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

// Request-validation bounds. τ is a normalized distance, so the unit
// interval is the entire meaningful range; k and n are capped so a single
// request cannot demand unbounded allocation.
const (
	maxTopK     = 4096
	maxTraceN   = 1024
	maxDocIDLen = 512
)

// httpState is the HTTP half of the Server: the routing mux plus the
// request-ID and logging plumbing of the middleware.
type httpState struct {
	mux    *http.ServeMux
	reqID  atomic.Int64
	logger *slog.Logger
}

// expvarOnce guards the process-global expvar registration (Publish
// panics on duplicate names; tests build many servers per process).
var expvarOnce sync.Once

// initHTTP wires the routing table and the debug endpoints. Called once
// by New.
func (s *Server) initHTTP() {
	s.mux = http.NewServeMux()
	s.logger = s.cfg.Logger
	if s.logger == nil {
		s.logger = obs.DiscardLogger()
	}
	// Sample every 16th traceable operation into a ring of recent traces;
	// /explain traces its query unconditionally regardless of sampling.
	if s.col.Tracer() == nil {
		s.col.SetTracer(obs.NewTracer(16, 64))
	}
	s.mux.HandleFunc("/docs/", s.handleDocs)
	s.mux.HandleFunc("/lookup", s.handleLookup)
	s.mux.HandleFunc("/topk", s.handleTopK)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/debug/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	col := s.col
	expvarOnce.Do(func() {
		expvar.Publish("pqgram", expvar.Func(func() any { return col.Snapshot() }))
	})
}

// statusWriter captures the response status and size for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// ServeHTTP is the request-logging and metrics middleware: it assigns a
// request ID (echoed as X-Request-ID), bounds the request body, times the
// handler, logs one structured line per request, and feeds the HTTP
// counters/histogram.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := s.reqID.Add(1)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	sw.Header().Set("X-Request-ID", fmt.Sprintf("req-%06d", id))
	if r.Body != nil {
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
	}
	t0 := time.Now()
	s.mux.ServeHTTP(sw, r)
	dur := time.Since(t0)
	s.m.httpRequests.Inc()
	if sw.status >= 400 {
		s.m.httpErrors.Inc()
	}
	s.m.httpNS.Observe(dur.Nanoseconds())
	s.logger.Info("request",
		"id", id,
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.status,
		"bytes", sw.bytes,
		"dur", dur,
	)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeQueryError maps a failed query to its status: ErrOverloaded is 429
// Too Many Requests with the configured Retry-After hint; any other error
// came from the query document.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	if !errors.Is(err, ErrOverloaded) {
		httpError(w, http.StatusBadRequest, "bad query document: %v", err)
		return
	}
	w.Header().Set("Retry-After",
		strconv.FormatInt(int64(math.Ceil(s.cfg.RetryAfter.Seconds())), 10))
	httpError(w, http.StatusTooManyRequests, "overloaded; retry after %s", s.cfg.RetryAfter)
}

// cacheHeader attributes an answered lookup to the tier that produced it.
func cacheHeader(res Result) string {
	if res.Cached {
		return "hit"
	}
	return "miss"
}

// LookupRequest is the body of POST /lookup. Tau runs a threshold lookup,
// which returns the trees at distance strictly below Tau: Tau = 0 (the
// default) matches nothing, and an exact-duplicate search asks for a tiny
// positive Tau. Top > 0 instead returns the Top nearest trees.
type LookupRequest struct {
	XML string  `json:"xml"`
	Tau float64 `json:"tau"`
	Top int     `json:"top"`
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	s.handleQuery(w, r, srcLookup)
}

// TopKRequest is the body of POST /topk. K defaults to 5.
type TopKRequest struct {
	XML string `json:"xml"`
	K   int    `json:"k"`
}

// handleTopK answers k-nearest-neighbour queries.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.handleQuery(w, r, srcTopK)
}

// maxBodyHint caps the buffer a declared Content-Length reserves for a
// query body: a body up to it is read in one allocation, and a client
// that declares a length it never sends makes the server reserve at
// most this much.
const maxBodyHint = 64 << 10

// handleQuery answers POST /lookup (form srcLookup) and POST /topk
// (srcTopK). The body is read whole and probed as the cache key before
// anything decodes it. A body the cache holds names its request in the
// answer, so a hit decodes nothing. Any other body is decoded as
// json.Decoder reads it off the wire — the first JSON value, with the
// read's error after the bytes read — and range-checked, both before
// admission.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, form byte) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var buf bytes.Buffer
	buf.Grow(1 + int(min(max(r.ContentLength, 0), maxBodyHint)) + bytes.MinRead)
	buf.WriteByte(form) // the key: the form, then the body
	_, readErr := buf.ReadFrom(r.Body)
	body := buf.Bytes()[1:]
	p := s.probe(buf.Bytes(), request{}, readErr == nil)
	var xml string
	if !p.held {
		var err error
		if p.req, xml, err = decodeQuery(form, &readBack{body, readErr}); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	res, err := s.query(p, func() (profile.Index, error) {
		if p.held { // the body decoded when its answer was cached
			_, xml, _ = decodeQuery(form, bytes.NewReader(body))
		}
		return xmlconv.StreamIndex(strings.NewReader(xml), xmlconv.Options{}, s.forest.Params())
	})
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	w.Header().Set("X-Cache", cacheHeader(res))
	w.Header().Set("Content-Type", "application/json")
	writeReply(w, form, p.req.k, res.Matches)
}

// readBack replays a read body: its bytes, then the error that ended the
// read, io.EOF for a body read in full.
type readBack struct {
	b   []byte
	err error
}

func (r *readBack) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		if r.err == nil {
			return 0, io.EOF
		}
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// decodeQuery decodes a /lookup or /topk body — the first JSON value,
// whatever follows it — and range-checks it, returning the request and
// the query's XML. The error is a 400's message.
func decodeQuery(form byte, r io.Reader) (request, string, error) {
	if form == srcTopK {
		var req TopKRequest
		if err := json.NewDecoder(r).Decode(&req); err != nil {
			return request{}, "", fmt.Errorf("bad request: %v", err)
		}
		if req.K < 0 || req.K > maxTopK {
			return request{}, "", fmt.Errorf("k %d out of range [0, %d]", req.K, maxTopK)
		}
		if req.K == 0 {
			req.K = 5
		}
		return request{op: opTopK, k: req.K}, req.XML, nil
	}
	var req LookupRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return request{}, "", fmt.Errorf("bad request: %v", err)
	}
	switch {
	case math.IsNaN(req.Tau) || req.Tau < 0 || req.Tau > 1:
		return request{}, "", fmt.Errorf("tau %v out of range [0, 1]", req.Tau)
	case req.Top < 0 || req.Top > maxTopK:
		return request{}, "", fmt.Errorf("top %d out of range [0, %d]", req.Top, maxTopK)
	case req.Top > 0:
		return request{op: opTopK, k: req.Top}, req.XML, nil
	}
	return request{op: opLookup, tau: req.Tau}, req.XML, nil
}

// topKReply is the reply of POST /topk.
type topKReply struct {
	K       int            `json:"k"`
	Matches []forest.Match `json:"matches"`
}

// writeReply encodes matches as form's endpoint replies them: /lookup
// the bare array, /topk the array beside k. No match encodes as [],
// never null.
func writeReply(w io.Writer, form byte, k int, ms []forest.Match) {
	if ms == nil {
		ms = []forest.Match{}
	}
	var v any = ms
	if form == srcTopK {
		v = topKReply{K: k, Matches: ms}
	}
	json.NewEncoder(w).Encode(v) // a match list always encodes
}

// ExplainRequest is the body of POST /explain: tau > 0 explains a
// threshold lookup, otherwise k (default 5) explains a top-k lookup.
type ExplainRequest struct {
	XML string  `json:"xml"`
	Tau float64 `json:"tau"`
	K   int     `json:"k"`
}

// handleExplain runs one query with tracing forced on and returns the
// plan decision plus the per-stage work-counter span tree. Explain is a
// diagnostic: it bypasses the cache on purpose (a cached
// answer has no work counters to report) but still runs the production
// lookup code. The trace is also published into the tracer's ring buffer
// tagged with this request's ID, correlating with the request log.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req ExplainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if math.IsNaN(req.Tau) || req.Tau < 0 || req.Tau > 1 {
		httpError(w, http.StatusBadRequest, "tau %v out of range [0, 1]", req.Tau)
		return
	}
	if req.K < 0 || req.K > maxTopK {
		httpError(w, http.StatusBadRequest, "k %d out of range [0, %d]", req.K, maxTopK)
		return
	}
	query, err := xmlconv.ParseString(req.XML, xmlconv.Options{})
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad query document: %v", err)
		return
	}
	var res forest.ExplainResult
	if req.Tau > 0 {
		res = s.forest.ExplainLookup(query, req.Tau)
	} else {
		if req.K == 0 {
			req.K = 5
		}
		res = s.forest.ExplainTopK(query, req.K)
	}
	reqID := w.Header().Get("X-Request-ID")
	s.col.Tracer().Publish(obs.TraceSnapshot{ID: reqID, Root: res.Trace})
	writeJSON(w, map[string]any{"id": reqID, "explain": res})
}

// EditsRequest is the body of POST /docs/{id}/edits: the paper's
// maintenance inputs — the resulting document, its node identities, and
// the log of inverse edit operations.
type EditsRequest struct {
	XML string        `json:"xml"`
	IDs []tree.NodeID `json:"ids"`
	Log []string      `json:"log"`
}

func (s *Server) handleDocs(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/docs/")
	if id, ok := strings.CutSuffix(rest, "/edits"); ok && r.Method == http.MethodPost {
		if !validDocID(w, id) {
			return
		}
		s.handleEdits(w, r, id)
		return
	}
	id := rest
	if !validDocID(w, id) {
		return
	}
	switch r.Method {
	case http.MethodPut:
		doc, err := xmlconv.Parse(r.Body, xmlconv.Options{})
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad document: %v", err)
			return
		}
		grams, err := s.Put(id, doc)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "persisting: %v", err)
			return
		}
		writeJSON(w, map[string]any{"id": id, "nodes": doc.Size(), "pqgrams": grams})
	case http.MethodDelete:
		if err := s.Remove(id); err != nil {
			httpError(w, notIndexedOr(err, http.StatusInternalServerError), "%v", err)
			return
		}
		writeJSON(w, map[string]string{"removed": id})
	default:
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// notIndexedOr is the status of a failed mutation of one document: 404
// if the document is not indexed, code for any other failure.
func notIndexedOr(err error, code int) int {
	if errors.Is(err, forest.ErrNotIndexed) {
		return http.StatusNotFound
	}
	return code
}

func validDocID(w http.ResponseWriter, id string) bool {
	if id == "" {
		httpError(w, http.StatusBadRequest, "missing document id")
		return false
	}
	if len(id) > maxDocIDLen {
		httpError(w, http.StatusBadRequest, "document id longer than %d bytes", maxDocIDLen)
		return false
	}
	return true
}

func (s *Server) handleEdits(w http.ResponseWriter, r *http.Request, id string) {
	var req EditsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	tn, err := xmlconv.ParseString(req.XML, xmlconv.Options{})
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad document: %v", err)
		return
	}
	if len(req.IDs) > 0 {
		if err := tn.SetIDs(req.IDs); err != nil {
			httpError(w, http.StatusBadRequest, "bad ids: %v", err)
			return
		}
	}
	ops, err := edit.ReadLog(strings.NewReader(strings.Join(req.Log, "\n")))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad log: %v", err)
		return
	}
	// Vet the log before touching the index: a broken feed must not be
	// able to corrupt it.
	if _, err := edit.VerifyLog(tn, ops); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "log does not apply: %v", err)
		return
	}
	ops = edit.OptimizeLog(tn, ops)
	st, err := s.Update(id, tn, ops)
	if err != nil {
		httpError(w, notIndexedOr(err, http.StatusUnprocessableEntity), "update failed: %v", err)
		return
	}
	writeJSON(w, map[string]any{
		"id": id, "ops": len(ops),
		"added": st.PlusGrams, "removed": st.MinusGrams,
		"micros": st.Total.Microseconds(),
	})
}

// handleStats reports the index shape plus the serving tier's live state:
// the mutation epoch and the result-cache fill, and — when a segmented
// store backs the server — the store's shape under "store": its segment
// count and bytes, resident and evicted documents.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	pr := s.forest.Params()
	cacheLen := 0
	if s.cache != nil {
		cacheLen = s.cache.len()
	}
	out := map[string]any{
		"p": pr.P, "q": pr.Q,
		"docs": s.forest.Len(), "pqgrams": s.forest.Size(),
		"serve": map[string]any{
			"epoch":         s.forest.Epoch(),
			"cache_entries": cacheLen,
			"cache_size":    s.cfg.CacheSize,
		},
	}
	if sb, ok := s.store.(segmentedBackend); ok {
		out["store"] = sb.Stats()
	}
	writeJSON(w, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w, s.col.Snapshot()); err != nil {
			s.logger.Error("prometheus exposition failed", "err", err)
		}
		return
	}
	writeJSON(w, s.col.Snapshot())
}

// handleTrace serves the tracer's ring buffer of recent traces, newest
// first. /explain traces carry the request ID of the request that ran
// them, correlating with the request log.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	n := 16
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 && v <= maxTraceN {
			n = v
		}
	}
	traces := s.col.Tracer().RecentTraces(n)
	if traces == nil {
		traces = []obs.TraceSnapshot{}
	}
	writeJSON(w, traces)
}
