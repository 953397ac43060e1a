# Developer entry points. CI runs the same targets; keep them in sync with
# .github/workflows/ci.yml.

GO ?= go

.PHONY: build loc test race bench benchscale scalecheck microbench bench-smoke profile crashtest servetest maintaintest querytest fuzz-smoke loadtest datasmoke fmt vet

build:
	$(GO) build ./...

# loc prints the line count ROADMAP.md's size target is measured in: the
# tracked Go files outside bench/ (the benchmark, a module of its own), test
# files excluded.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs cat | wc -l

# -shuffle=on randomizes test order within each package, so tests that lean
# on leftover state from an earlier test fail loudly instead of passing by
# accident.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# crashtest runs the fault-injection and crash-recovery suites of both
# stores and of the framed log under them, under the race detector:
# crash-at-every-truncation-point replay, write kills at every byte offset,
# syscall faults on every Compact step, the codec corruption matrix, the
# refusal of a directory the hash-sharded store of earlier builds wrote, the
# page store's torn-tail, crash-mid-write, corrupt-segment and old-format
# suites, the forged-length allocation bounds, and the fuzz targets' seed
# corpora. -count=1 defeats test caching
# so CI always re-proves the durability contract.
crashtest:
	$(GO) test -race -count=1 -v \
		-run 'Crash|Fault|Torn|Recovery|Corrupt|Degraded|Killed|Seq|Frame|Shard|Legacy|Compact|DiskStore|Alloc|Decode' \
		./internal/framelog/ ./internal/lrec/ ./internal/webgraph/

# servetest runs the serving-layer suites under the race detector: concurrent
# Search/Aggregate traffic hammered against in-flight Refresh and Reconcile,
# the post-refresh staleness pin, coalescing, shedding, and the HTTP 503/504
# mapping in wocserve. -count=1 defeats test caching so every CI run
# re-proves the read/maintenance lock.
servetest:
	$(GO) test -race -count=1 -v ./internal/serving/ ./cmd/wocserve/

# querytest re-proves the query path's equivalences under the race
# detector: the one ranked query path (Index.SearchCost) against the
# retained map-and-sort reference with its own statistics (score bits,
# order, nil-ness, posting adjacency, on random and on mostly-tied corpora,
# where the integer ID-rank tie-break decides the order); seeded searches
# racing adds, re-adds, removals and compactions (every ranking ordered and
# duplicate-free, the reference's answers once the writes stop); the
# document ranking that
# asks the index for k when no box triggered against the 4k+20 fetch it
# replaced; and the shared-reference reads against the clone-everything
# ConceptSearch/Trigger/Alternatives — plus the aliasing test, where readers
# scribble over every returned record while a writer Puts the same IDs — and
# the index's write side: Prepare's term frequencies merged by AddPrepared
# against the retained token-stream merge, posting for posting — and the
# record store's attribute and concept indexes against a filter over Scan
# after every step of seeded put/delete/compact/reopen scripts. The second
# run, without the race detector (under it sync.Pool drops pooled scratch
# and the file is compiled out), pins a ranked query's allocations: none
# grows with the documents scored.
querytest:
	$(GO) test -race -count=1 -v \
		-run 'KernelMatchesReference|SearchRacesWriters|RankDocsMatchesWideFetch|PreparedMergeMatchesReference|SharedReadsMatch|AlternativesMatch|ReturnedRecordsAreCallersToKeep|AttrIndexMatchesScan' \
		./internal/index/ ./internal/search/ ./internal/session/ ./internal/lrec/
	$(GO) test -count=1 -run 'Allocs' ./internal/index/

# maintaintest runs the continuous-maintenance suites under the race
# detector: the scheduler's cohort/sweep/gone-probe unit tests, the churn
# stress (serving-layer readers hammering the system across >=3 full
# background sweeps with a page loss and resurrection, p99 read bound), the
# delta-vs-rebuild equivalence matrix (incremental passes — the four
# scripted ones and the seeded random schedules — must land on bit-identical
# store content and search results as a fresh build, at every worker
# count), the extraction memo against the retained whole-site
# and whole-host extraction (seeded random page churn, candidate for
# candidate), the page-task extract stage against the same whole-host oracle
# (workers 1/2/8 x windows of one host, 64 pages and the whole corpus; fresh,
# memo-less, host-restricted and re-induction extractions), the
# recognise-once scan memo against the retained per-call recognisers, the
# recognizer kernels against their retained regular expressions, and the
# document index fed from the page tasks against a serial Add loop (workers x
# windows) with the streamed build's one-parse-per-page count, the
# relink stage's link-feature memo against a re-parse of every page it
# scores (scripted and seeded random churn, and a stale entry), enrichment's
# homepage-hosts-only reads, the page store's read path: every Get a
# parse, PutRaw none, and NewPage's fuzz seeds (two parses of the same bytes
# agree), and the text kernels and pre-test under every page: the one-pass
# tokenizer and Normalize against the retained rune-by-rune tokenizer and
# Join-based Normalize, Node.Text's one-pass whitespace collapse against
# strings.Fields, and the propagate pass with its pre-test against the pass
# without it (seeded random input and each fuzz target's seeds).
# -count=1 defeats test caching.
maintaintest:
	$(GO) test -race -count=1 -v ./internal/maintain/
	$(GO) test -race -count=1 -v \
		-run 'TestDeltaRefreshConvergesToRebuild|TestRefresh|TestRemove|TestStoreDelete|TestSiteMemo|TestSitePages|TestBuildStreamKeepsNoMemo|TestWindowScheduler|TestRecognizeOnce|TestParsersMatchPerCall|TestKernelsMatchRegexp|TestDocIndexOrder|TestStreamedBuildParses|TestRelinkMemo|TestBuildStreamKeepsNoLinkMemo|TestEnrichMenusReadsOnly|GetParsesEveryTime|TestPutRawMatchesPut|FuzzNewPageDeterministic|TestTokenizeMatchesReference|FuzzTokenize|FuzzNormalize|TestNodeTextMatchesReference|FuzzNodeText|TestPropagatePretest|FuzzPropagatePretest' \
		./internal/core/ ./internal/extract/ ./internal/index/ ./internal/webgraph/ ./internal/textproc/ ./internal/htmlx/

# fuzz-smoke runs every native fuzz target in the tree for a bounded time
# (FUZZTIME each, one target per invocation as `go test -fuzz` requires).
# FUZZ_TARGETS lists them as package:Target, so a target anywhere in the tree
# joins by adding an entry. A crasher lands in the package's
# testdata/fuzz/<target>/ directory; commit it — the plain `go test` run then
# replays it as a regression seed.
# -fuzzminimizetime is bounded in runs: the default (60 s of minimizing each
# new 10 KB page that reaches new coverage) would spend the whole budget on
# the first interesting input.
FUZZTIME ?= 10s
FUZZ_TARGETS = ./internal/extract/:FuzzSitePageMemo ./internal/extract/:FuzzRecognizeOnce \
	./internal/extract/:FuzzRecognizerKernels \
	./internal/index/:FuzzPrepare ./internal/framelog/:FuzzFrames ./internal/lrec/:FuzzDecodeRecord \
	./internal/lrec/:FuzzAttrIndex ./internal/webgraph/:FuzzNewPageDeterministic \
	./internal/textproc/:FuzzTokenize ./internal/textproc/:FuzzEqualsNormalized \
	./internal/textproc/:FuzzNormalize ./internal/htmlx/:FuzzNodeText \
	./internal/extract/:FuzzPropagatePretest

fuzz-smoke:
	@set -e; for entry in $(FUZZ_TARGETS); do \
		pkg=$${entry%%:*}; target=$${entry##*:}; \
		echo "fuzz $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 10x $$pkg; \
	done

# bench runs the end-to-end construction benchmark at 1, 4, and 8 workers
# (via -cpu, which also sets GOMAXPROCS and hence the default pool size) and
# archives the per-stage trace metrics. -benchtime=1x -count=3 keeps it fast
# enough for CI while still exposing run-to-run variance.
# Both bench targets report numcpu/gomaxprocs custom metrics, so the
# archived output records the host parallelism it was measured on.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkBuildPipeline' -benchtime=1x -count=3 -cpu 1,4,8 . | tee bench-pipeline.txt

# benchscale measures the corpus-scale streamed build: heavy-tail worlds at
# increasing page counts run through BuildStream (page bytes in the page
# store's segment files, in a temporary directory), one process per size so
# every peak-RSS sample (VmHWM) is isolated.
# Each run appends a JSON line via -stats-json (including per-stage wall
# times); the lines are assembled into $(SCALE_OUT) — the scaling curve
# (pages vs wall vs per-stage ms vs peak RSS). Override SCALE_SIZES /
# SCALE_RSS_CEILING / SCALE_OUT for a quick smoke: CI runs a single 20k-page
# world into a scratch file (so the committed baseline curve is untouched)
# and fails the build if peak RSS crosses a fixed ceiling, which is the
# bounded-memory property under regression test.
SCALE_SIZES ?= 20000 50000 100000
SCALE_RSS_CEILING ?= 0
SCALE_OUT ?= BENCH_PR10.json

benchscale:
	$(GO) build -o bin/wocbuild ./cmd/wocbuild
	@set -e; \
	rm -f benchscale-lines.json; \
	for n in $(SCALE_SIZES); do \
		./bin/wocbuild -world-profile heavytail -pages $$n \
			-stats-json benchscale-lines.json -rss-ceiling $(SCALE_RSS_CEILING); \
	done; \
	{ echo '{"bench": "corpus-scale streamed build (heavy-tail world, disk page store)",'; \
	  echo ' "rss_ceiling_bytes": $(SCALE_RSS_CEILING),'; \
	  echo ' "runs": ['; \
	  sed '$$!s/$$/,/' benchscale-lines.json; \
	  echo ']}'; } > $(SCALE_OUT); \
	rm -f benchscale-lines.json bin/wocbuild; \
	cat $(SCALE_OUT)

# scalecheck compares a freshly measured scaling curve against the committed
# baseline (BENCH_PR10.json): for each page count present in both, the ratio
# of link+resolve wall time to the linear stages (ingest+extract+index) must
# stay within a slack factor of the baseline's ratio. The stage-time ratio is
# host-speed independent, so this catches the super-linear
# matching/resolution regression class on any runner. Typical use after the
# CI smoke:
#   make benchscale SCALE_SIZES=20000 SCALE_OUT=bench-scale-smoke.json
#   make scalecheck SCALE_CURVE=bench-scale-smoke.json
SCALE_CURVE ?= bench-scale-smoke.json
SCALE_BASELINE ?= BENCH_PR10.json

scalecheck:
	$(GO) run ./cmd/scalecheck -curve $(SCALE_CURVE) -baseline $(SCALE_BASELINE)

# microbench runs the hot-path microbenchmarks with allocation stats:
# tokenization (ASCII and with non-ASCII runes), normalization, a page's
# whole text, repeated-group discovery, the propagate pass over an
# aggregator page no trusted single is on, TF-IDF scoring, §5.4 text matching,
# collective resolution, the maintenance upsert's target scan (200 incoming ×
# 1000 stored records) with the profile pair score under it, and the query
# path: one ranked BM25F query (heavy-tail 2k-page index, instance / set /
# attribute forms, k = 60),
# one Alternatives call, and one index re-add at 2k and at 20k documents
# (the two must read alike: a re-add
# costs what the document holds, not what the index holds), and the index
# build of the same 2k pages (Prepare + AddPrepared, with the merge's share
# as merge-us/doc), and each recognizer rule over every
# item text, span and body of that world, by its kernel and by its retained
# regular expression (BenchmarkRecognizers, rule=<key>/kernel|regexp). These
# are the functions the extract/link/resolve/upsert stages and a cold query
# spend their time in; -benchmem makes allocation regressions visible next to
# the ns/op numbers. The match and index benchmarks include *Reference
# variants running the retained naive scorers and the map-and-sort kernel, so
# the archived output shows the speedup alongside the absolute numbers.
# BenchmarkExtractStage is the whole extract stage over the heavy-tail 2k-page
# world at GOMAXPROCS 1 and 2: pages/s, and busy-workers (summed page-task
# time over stage wall time), so the stage's parallel efficiency is a line in
# the archive and not a claim.
microbench:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkTokenize|BenchmarkTokenizeInto|BenchmarkNormalize|BenchmarkNodeText|BenchmarkTopTerms|BenchmarkRepeatedGroups|BenchmarkPropagatePage|BenchmarkMatchTokens|BenchmarkResolve|BenchmarkUpsertScan|BenchmarkScoreProfiles|BenchmarkIndexSearch|BenchmarkIndexReAdd|BenchmarkIndexBuild|BenchmarkAlternatives|BenchmarkRecognizers' \
		-benchmem ./internal/textproc/ ./internal/htmlx/ ./internal/extract/ ./internal/match/ ./internal/index/ ./internal/session/ | tee bench-micro.txt
	$(GO) test -run '^$$' -bench 'BenchmarkExtractStage' -cpu 1,2 -benchtime 5x -benchmem ./internal/core/ | tee -a bench-micro.txt

# bench-smoke proves the repository's benchmark (bench/, a module of its own
# that the root module's build and tests do not cover) still compiles against
# the program and runs: vet, its tests, and every workload at smoke size. A
# rename that breaks a symbol the benchmark calls fails here.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...
	$(GO) run -C bench . -quick

# loadtest smoke-drives a freshly built wocserve with wocload's
# logsim-derived workload: wocbuild writes the default world into
# bin/loadtest-data, wocserve -data reopens it, and wocload — which
# regenerates its vocabulary from the world the server's /healthz manifest
# names — runs two low QPS levels for a few seconds each,
# report archived as loadtest-report.json. wocload waits for /healthz,
# splits hit/miss via the X-Woc-Trace/X-Woc-Cache headers, and exits
# non-zero if the sweep completes zero requests — so CI catches a server
# that builds but cannot serve.
loadtest:
	$(GO) build -o bin/wocbuild ./cmd/wocbuild
	$(GO) build -o bin/wocserve ./cmd/wocserve
	$(GO) build -o bin/wocload ./cmd/wocload
	@set -e; \
	rm -rf bin/loadtest-data; \
	./bin/wocbuild -out bin/loadtest-data > /dev/null; \
	./bin/wocserve -data bin/loadtest-data -addr 127.0.0.1:8639 & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	./bin/wocload -addr http://127.0.0.1:8639 -qps 20,40 -duration 3s \
		-out loadtest-report.json

# datasmoke reopens a heavy-tail corpus from its directory: wocbuild writes
# an 8k-page directory, wocsearch -data must find results in it, and
# wocserve -data must answer 200 to /healthz and one /search over it.
datasmoke:
	$(GO) build -o bin/wocbuild ./cmd/wocbuild
	$(GO) build -o bin/wocserve ./cmd/wocserve
	$(GO) build -o bin/wocsearch ./cmd/wocsearch
	@set -e; \
	rm -rf bin/datasmoke-data; \
	./bin/wocbuild -world-profile heavytail -pages 8000 -out bin/datasmoke-data > /dev/null; \
	n=$$(./bin/wocsearch -data bin/datasmoke-data -q pizza | grep -c '^ *[0-9]*\. '); \
	echo "datasmoke: wocsearch -q pizza: $$n results"; test "$$n" -gt 0; \
	./bin/wocserve -data bin/datasmoke-data -addr 127.0.0.1:8638 & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 150); do curl -sf -o /dev/null http://127.0.0.1:8638/healthz && break; sleep 0.2; done; \
	for path in /healthz '/search?q=pizza'; do \
		code=$$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:8638$$path"); \
		echo "datasmoke: $$path $$code"; test "$$code" = 200; \
	done

# profile builds the demo world end to end at one worker and writes pprof
# CPU and heap profiles. Inspect with: go tool pprof build.pprof
profile:
	rm -rf /tmp/wocprofile
	$(GO) run ./cmd/wocbuild -workers 1 -v -out /tmp/wocprofile \
		-cpuprofile build.pprof -memprofile mem.pprof

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
