// pqserve is the production pq-gram similarity service: the
// internal/serve tier — an epoch-invalidated result cache and
// latency-driven admission control — over an in-memory or journaled
// persistent index.
//
// Typical invocations:
//
//	pqserve                          in-memory index on :8080, cache of 1024 results
//	pqserve -index idx.pq -sync      durable index, fsync every mutation
//	pqserve -index idx.pq -flush-every 1024
//	                                 mutated docs spill to immutable segment files
//	                                 every 1024 dirty documents (default 4096);
//	                                 lookups merge RAM and segments
//	pqserve -p95-budget 25ms         shed (429 + Retry-After) when p95 crosses 25ms
//	pqserve -cache 0 -max-inflight 0 raw forest behavior: no cache, no admission
//
// With -index the store at that path is opened if its manifest exists and
// created otherwise. On SIGINT or SIGTERM the server stops accepting
// requests, waits (bounded) for the ones in flight, closes the store and
// exits 0.
//
// The HTTP surface is documented in internal/serve/http.go; `go run ./examples/server` tours it. How fast
// this binary is comes from benchmark/, which builds and drives it.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pqgram/internal/forest"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/serve"
	"pqgram/internal/store"
)

// shutdownWait bounds how long a stopping server waits for the requests
// in flight before it closes the store under them.
const shutdownWait = 5 * time.Second

// readHeaderWait bounds how long a connection may take to deliver one
// request's headers, so a client that never finishes its request line
// cannot hold a goroutine and a descriptor forever. On a kept-alive
// connection the clock starts at the next request's first bytes, so idle
// pooled connections are not affected.
const readHeaderWait = 5 * time.Second

// readWait bounds how long a connection may take to deliver one whole
// request, headers and body, so a client that announces a body and then
// trickles it cannot hold a handler goroutine forever. net/http clears
// the deadline once the body has been read, so it never cuts a slow
// handler short. At the default 8 MiB body cap it still admits clients
// sending 0.8 MB/s.
const readWait = 10 * time.Second

// idleWait closes a kept-alive connection that has sat idle this long.
// It exceeds net/http clients' default 90 s idle timeout, so the client
// side normally closes first and never reuses a connection the server is
// closing.
const idleWait = 2 * time.Minute

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	index := flag.String("index", "", "back the service with a persistent store at this path (journaled; survives restarts)")
	syncWrites := flag.Bool("sync", false, "with -index: fsync every journaled mutation before acknowledging it")
	flag.Bool("segments", false, "accepted for compatibility and ignored: every index is segmented")
	flushEvery := flag.Int("flush-every", 4096, "with -index: flush the memtable to a segment after this many dirty documents (0 = never automatically)")
	cacheSize := flag.Int("cache", 1024, "result-cache capacity in entries (0 disables)")
	maxInflight := flag.Int("max-inflight", 64, "concurrent lookups executing at once (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 256, "lookups allowed to wait for an in-flight slot before shedding")
	p95Budget := flag.Duration("p95-budget", 0, "shed new lookups while windowed p95 latency exceeds this (0 disables)")
	budgetWindow := flag.Duration("budget-window", time.Second, "rotation period of the p95 backpressure window")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed responses")
	quiet := flag.Bool("quiet", false, "suppress per-request logging")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *quiet {
		logger = obs.DiscardLogger()
	}

	col := obs.NewCollector()
	col.SetLogger(logger)
	profile.SetCollector(col)

	var f *forest.Index
	var backend serve.Backend
	var st *store.Segmented
	if *index != "" {
		var err error
		if st, err = store.OpenOrCreate(*index, profile.Default); err != nil {
			log.Fatalf("opening index %s: %v", *index, err)
		}
		st.SetSync(*syncWrites)
		st.SetFlushThreshold(*flushEvery)
		st.SetCollector(col)
		r, ss := st.Recovery(), st.Stats()
		logger.Info("index opened", "path", *index,
			"docs", st.Forest().Len(),
			"segments", ss.Segments,
			"segment_bytes", ss.SegmentBytes,
			"replayed_records", r.Records,
			"torn_bytes", r.TornBytes,
			"skipped_records", r.SkippedRecords,
			"stale_journal", r.StaleJournal)
		f = st.Forest()
		backend = st
	} else {
		f = forest.New(profile.Default)
		f.SetCollector(col)
	}

	srv := serve.New(f, backend, serve.Config{
		CacheSize:    *cacheSize,
		MaxInFlight:  *maxInflight,
		MaxQueue:     *maxQueue,
		P95Budget:    *p95Budget,
		BudgetWindow: *budgetWindow,
		RetryAfter:   *retryAfter,
		Logger:       logger,
	}, col)

	// WriteTimeout stays unset: /debug/pprof/profile streams for 30 s by
	// default (longer on request), and a write deadline would cut it off.
	hs := &http.Server{Addr: *addr, Handler: srv,
		ReadHeaderTimeout: readHeaderWait, ReadTimeout: readWait, IdleTimeout: idleWait}
	listenErr := make(chan error, 1)
	//pqlint:allow goroutinecheck joined through listenErr: both arms of the select below receive its one send before the store closes
	go func() { listenErr <- hs.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("pqserve listening on %s (cache=%d inflight=%d queue=%d p95-budget=%s)",
		*addr, *cacheSize, *maxInflight, *maxQueue, *p95Budget)

	code := 0
	select {
	case err := <-listenErr:
		log.Printf("pqserve: %v", err)
		code = 1
	case got := <-sig:
		log.Printf("pqserve: %v: shutting down", got)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownWait)
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("pqserve: shutdown: %v", err)
		}
		cancel()
		if err := <-listenErr; !errors.Is(err, http.ErrServerClosed) {
			log.Printf("pqserve: %v", err)
			code = 1
		}
	}
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("pqserve: closing index %s: %v", *index, err)
			code = 1
		}
	}
	os.Exit(code)
}
