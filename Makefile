# Development targets. `make check` is the gate a change must pass:
# formatting, vet, the pqlint invariant suite (see internal/lint), build,
# the full test suite under the race detector, the suite again in -short
# mode (the scaled-down fixtures that tests pick under testing.Short()), a
# short fuzz pass over every fuzz target (seed corpora plus FUZZTIME of
# generation), a coverage gate over the correctness-critical packages
# and internal/lint, a single-iteration sweep of the root package's
# `go test` benchmarks so they cannot silently rot (the paper's
# experiments among them check update ≡ rebuild at full scale), and
# vet + tests + pqlint of the separate benchmark module (the one source
# of performance numbers), which tier-1 never builds. Nothing in the gate
# compares wall-clock times. Override the fuzz duration with e.g.
# `make check FUZZTIME=30s`.

GO      ?= go
FUZZTIME ?= 5s

# Coverage floors of the gate below: the last measured figures (core
# 91.4%, forest 94.5%, profile 94.7%, obs 93.5%, serve 85.0%, store
# 90.6%, lint 84.0%) minus 4 points of slack so unrelated refactors
# don't trip it.
# Raise them when coverage rises; never lower them to make a change pass.
COVER_FLOOR_CORE    ?= 87
COVER_FLOOR_FOREST  ?= 90
COVER_FLOOR_PROFILE ?= 90
COVER_FLOOR_OBS     ?= 89
COVER_FLOOR_SERVE   ?= 81
COVER_FLOOR_STORE   ?= 86
COVER_FLOOR_LINT    ?= 80

.PHONY: check fmt-check lint vet build test test-short race fuzz cover bench bench-smoke bench-check

check: fmt-check vet lint build test test-short fuzz cover bench-smoke bench-check

# gofmt guard: fails listing the unformatted files instead of rewriting
# them, so CI and `make check` reject what `gofmt -w` would change.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The repository's own static-analysis suite: crash-safety, concurrency
# and determinism invariants (ARCHITECTURE.md, "Enforced invariants").
lint:
	$(GO) run ./cmd/pqlint ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The -short paths: tests that branch on testing.Short() run smaller
# fixtures there, which nothing else in the gate exercises.
test-short:
	$(GO) test -short ./...

# Dedicated race-detector pass (its own CI job): every test twice under
# a bounded GOMAXPROCS, giving schedule-dependent interleavings a second
# chance to trip the locking protocols that lockcheck and lockorder
# enforce statically.
race:
	GOMAXPROCS=4 $(GO) test -race -count=2 ./...

# Each fuzz target runs alone (go test allows one -fuzz per invocation).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzUpdateIndex -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzParseOp -fuzztime=$(FUZZTIME) ./internal/edit
	$(GO) test -run='^$$' -fuzz=FuzzReadLog -fuzztime=$(FUZZTIME) ./internal/edit
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzOpenSegment -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzParseManifest -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/tree
	$(GO) test -run='^$$' -fuzz=FuzzStreamIndex -fuzztime=$(FUZZTIME) ./internal/xmlconv
	$(GO) test -run='^$$' -fuzz=FuzzDistance -fuzztime=$(FUZZTIME) ./internal/profile
	$(GO) test -run='^$$' -fuzz=FuzzServeRequest -fuzztime=$(FUZZTIME) ./internal/serve

# Coverage gate: the packages that carry the correctness arguments (the
# paper's update algorithm, distance algebra, lookup planning, the
# serving tier, the store) and the pqlint flow engine that checks their
# locking, span and nil-guard discipline must not slip below their
# recorded floors.
cover:
	@set -e; \
	for spec in internal/core:$(COVER_FLOOR_CORE) internal/forest:$(COVER_FLOOR_FOREST) internal/profile:$(COVER_FLOOR_PROFILE) internal/obs:$(COVER_FLOOR_OBS) internal/serve:$(COVER_FLOOR_SERVE) internal/store:$(COVER_FLOOR_STORE) internal/lint:$(COVER_FLOOR_LINT); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; prof=$$(mktemp); \
		$(GO) test -coverprofile=$$prof ./$$pkg > /dev/null; \
		pct=$$($(GO) tool cover -func=$$prof | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		rm -f $$prof; \
		echo "coverage $$pkg: $$pct% (floor $$floor%)"; \
		if [ "$$(awk -v p=$$pct -v f=$$floor 'BEGIN { print (p >= f) ? 1 : 0 }')" != 1 ]; then \
			echo "coverage gate: $$pkg fell below its $$floor% floor"; exit 1; \
		fi; \
	done

# Every benchmark of the root package; the paper's tables in
# EXPERIMENTS.md come from `-bench 'Fig|Table2|Ablation' -count 5`.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -timeout=90m .

# One iteration of every `go test` benchmark of the root package, so
# bench_test.go cannot rot. The paper's experiments check their
# incremental results against rebuilds off the clock, so this is also a
# correctness run at their full scale. It asserts nothing about time: a
# performance question is answered by benchmark/ (`bash
# benchmark/run.sh`, then `bash benchmark/run.sh compare A B`), whose
# bounds have a measured noise floor.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

# The benchmark/ directory is its own module (pqgram/benchmark, with a
# replace onto this one), so `./...` above never compiles it: an API
# change under benchmark/adapter.go would otherwise surface only when the
# benchmark next runs.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test . && $(GO) run pqgram/cmd/pqlint ./...
