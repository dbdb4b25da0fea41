# Tier-1 gate plus convenience targets. `make check` is what CI (and
# every PR) must keep green.

GO ?= go

.PHONY: check build test race vet vet-unsafeptr refbench-test bench-serve bench bench-query bench-par bench-shard bench-codec bench-vm bench-append bench-succinct bench-succinct-smoke bench-diff bench-paper fuzz-smoke

check: vet vet-unsafeptr build race refbench-test bench bench-succinct-smoke bench-diff-advisory ## tier-1: vet + build + race-clean tests + harness tests + bench smoke

vet:
	$(GO) vet ./...

# The succinct bitvector kernels index raw word slices; keep the
# unsafe-pointer analyzer explicitly on so any future unsafe use in the
# hot paths is vetted.
vet-unsafeptr:
	$(GO) vet -unsafeptr ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The reference benchmark harness is a module of its own (refbench/go.mod),
# so `go test ./...` at the root does not reach its tests.
refbench-test:
	cd refbench && $(GO) test .

# Serving-throughput baseline (recorded in EXPERIMENTS.md).
bench-serve:
	$(GO) test ./internal/server/ -run xxx -bench BenchmarkServerQuery -benchtime 2s

# Ingestion + decode + serving benchmarks with allocation counts; each
# run appends one JSON record to BENCH_ingest.json for cross-commit
# comparison.
bench: bench-query bench-par bench-shard bench-codec bench-vm bench-append bench-succinct
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	($(GO) test -run '^$$' -bench 'BenchmarkCompressXMark|BenchmarkDecodeScratch' -benchmem . && \
	 $(GO) test -run '^$$' -bench BenchmarkServerQuery -benchmem ./internal/server/) \
	| /tmp/benchjson -o BENCH_ingest.json -label ingest+decode+serve

# Streaming result-path benchmarks: time-to-first-item at 10×-apart
# cardinalities (must stay flat) and WriteXML allocation counts.
# Appends to BENCH_query.json.
bench-query:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkFirstResult|BenchmarkWriteXML' -benchmem . \
	| /tmp/benchjson -o BENCH_query.json -label query-streaming

# Intra-query parallelism benchmarks: the partitioned container scan
# and the multi-container predicate fan-out at worker budgets 1/2/4.
# Appends to BENCH_query_par.json. Speedups over p=1 require a
# multi-core host; see EXPERIMENTS.md for the calibration notes.
bench-par:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkParQuery' -benchmem . \
	| /tmp/benchjson -o BENCH_query_par.json -label query-parallel

# Scatter-gather benchmarks: a scatterable query through per-shard
# fan-out + rank-ordered merge at 1/2/4/8 shards vs the unsharded
# baseline, and the fused-fallback path. Appends to BENCH_shard.json.
# Like bench-par, sharded speedups need a multi-core host; on one core
# the sharded rows measure coordination + merge overhead.
bench-shard:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkShard(Scatter|Fallback)' -benchmem . \
	| /tmp/benchjson -o BENCH_shard.json -label shard-scatter

# Codec kernel microbenchmarks: per-codec encode/decode MB/s over the
# XMark description container. Appends to BENCH_codec.json; the
# DecodeCost constants in internal/costmodel are derived from these
# records (see EXPERIMENTS.md).
bench-codec:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkCodec(Encode|Decode)' -benchmem . \
	| /tmp/benchjson -o BENCH_codec.json -label codec-kernels

# Mutable-repository benchmarks: appending one document vs re-ingesting
# the whole concatenated corpus, and query latency over the same corpus
# held as 1/2/4 segments (scattered merge and fused fallback). Appends
# to BENCH_append.json.
bench-append:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkAppend(Ingest|Query)' -benchmem . \
	| /tmp/benchjson -o BENCH_append.json -label append-segments

# Succinct-structure benchmarks: structure density (bits per tree
# node) and resident bytes per backend, Descendants/Parent operator
# throughput, and end-to-end query latency, each run on both the
# record-array oracle and the balanced-parentheses self-index. Appends
# to BENCH_succinct.json.
bench-succinct:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkSuccinct' -benchmem . \
	| /tmp/benchjson -o BENCH_succinct.json -label succinct-structure

# One-iteration smoke of the succinct bench harness for `make check`:
# proves the benchmarks still compile and run, without recording JSON.
bench-succinct-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSuccinct' -benchtime 1x . >/dev/null

# Compiled-plan engine benchmarks: per-item dispatch cost, first-item
# latency and allocs of streaming/predicate workloads on the stack VM
# (the only evaluator; sub-benchmarks keep their "engine=vm" names so
# older records stay comparable). Appends to BENCH_vm.json; the
# historical VM-vs-tree-walker record lives in EXPERIMENTS.md.
bench-vm:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkVM(Stream|FirstResult|Predicate)' -benchmem . \
	| /tmp/benchjson -o BENCH_vm.json -label vm-dispatch

# Compare the latest two records of every benchmark log: `make check`
# appends a fresh record per log (via bench), so this answers "what did
# this commit change" benchmark-by-benchmark. bench-diff fails on
# regressions past the threshold; the -advisory variant (in check)
# reports them without failing the gate, since single-run noise on a
# shared machine is well above a real gate threshold.
BENCH_DIFF_THRESHOLD ?= 10
bench-diff:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	@fail=0; for f in BENCH_*.json; do \
		echo "== $$f"; \
		/tmp/benchjson -diff -threshold $(BENCH_DIFF_THRESHOLD) $$f $$f || fail=1; \
	done; exit $$fail

.PHONY: bench-diff-advisory
bench-diff-advisory:
	-@$(MAKE) --no-print-directory bench-diff

# Short fuzzing pass over the codec fuzz targets (roundtrip, order
# preservation, decode-vs-reference). Not part of tier-1 `check`; the
# targets' seed corpora still run under plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzHuffmanRoundtrip -fuzztime 5s ./internal/compress/huffman/
	$(GO) test -run '^$$' -fuzz FuzzHuffmanDecodeGarbage -fuzztime 5s ./internal/compress/huffman/
	$(GO) test -run '^$$' -fuzz FuzzHuTuckerRoundtrip -fuzztime 5s ./internal/compress/hutucker/
	$(GO) test -run '^$$' -fuzz FuzzHuTuckerDecodeGarbage -fuzztime 5s ./internal/compress/hutucker/
	$(GO) test -run '^$$' -fuzz FuzzALMRoundtrip -fuzztime 5s ./internal/compress/alm/
	$(GO) test -run '^$$' -fuzz FuzzALMOrder -fuzztime 5s ./internal/compress/alm/
	$(GO) test -run '^$$' -fuzz FuzzALMDecodeGarbage -fuzztime 5s ./internal/compress/alm/
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime 5s ./internal/vm/
	$(GO) test -run '^$$' -fuzz FuzzBitvectorRankSelect -fuzztime 5s ./internal/succinct/
	$(GO) test -run '^$$' -fuzz FuzzBPNavigation -fuzztime 5s ./internal/succinct/
	$(GO) test -run '^$$' -fuzz FuzzBulkNavigation -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzParseManifest -fuzztime 5s ./internal/shard/

# Full paper benchmark suite (scaled-down in-test versions).
bench-paper:
	$(GO) test -bench . -benchtime 1x .
