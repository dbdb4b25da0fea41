// Command xquecd is the XQueC query daemon: it serves XQuery over a
// directory of compressed .xqc repositories, keeping hot repositories
// resident and caching compiled queries so repeated workload queries
// skip the parser.
//
// Usage:
//
//	xquecd -repos ./repos [-addr :8090] [-pool 8] [-plans 256]
//	       [-timeout 30s] [-max-concurrent 16] [-flush-items 32]
//	       [-query-parallelism 1] [-partial-results] [-hedge 50ms]
//	       [-shard-fanout 0] [-compact-after 0] [-max-append-bytes 64MiB]
//	       [-pprof localhost:6060]
//
// The repository directory may hold single repositories (name.xqc),
// shard-set manifests (name.xqcs, from `xquec compress -shards N`) and
// segment-set manifests (name.xqcg, from appends); all are addressed by
// bare name, with the segment manifest taking precedence. Scattered
// queries over shard and segment sets honor -partial-results, -hedge
// and -shard-fanout, and export xquecd_shard_* metrics.
//
// POST /append grows a repository without rebuilding it: the document
// becomes a new append segment, the set is persisted and atomically
// swapped into the pool (in-flight queries keep their snapshot), and
// once the segment count reaches -compact-after a background compaction
// folds the set back into one freshly partitioned segment.
//
// API:
//
//	POST /query         {"repo":"auction","query":"count(/site//item)","timeout_ms":500}
//	POST /query/stream  same body; chunked newline-separated items,
//	                    flushed every -flush-items items
//	POST /append        {"repo":"auction","doc":"<site>...</site>","compact":false}
//	GET  /repos         available and resident repositories
//	GET  /stats         JSON counters, pool and plan-cache statistics
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text format
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xquec/internal/server"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	repos := flag.String("repos", "", "directory of .xqc repository files (required)")
	pool := flag.Int("pool", 8, "max resident repositories")
	plans := flag.Int("plans", 256, "max cached query plans")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query evaluation deadline")
	maxConc := flag.Int("max-concurrent", 0, "max concurrently evaluating queries (0 = 2×GOMAXPROCS)")
	flushItems := flag.Int("flush-items", 32, "flush /query/stream responses every N items (first item always flushes)")
	queryPar := flag.Int("query-parallelism", 1, "intra-query worker budget per query (1 = serial; requests may override with \"parallelism\")")
	partial := flag.Bool("partial-results", false, "serve partial results when a shard or segment fails on sharded or segmented repositories (requests may override with \"partial_results\")")
	hedge := flag.Duration("hedge", 0, "re-dispatch a silent shard or segment stream after this long on scattered queries (0 = off; requests may override with \"hedge_ms\")")
	shardFanout := flag.Int("shard-fanout", 0, "max shards or segments evaluating concurrently per scattered query (0 = all)")
	compactAfter := flag.Int("compact-after", 0, "background-compact a repository once an append leaves it with this many segments (0 = only on request)")
	maxAppend := flag.Int64("max-append-bytes", 0, "max /append request body size in bytes (0 = 64 MiB)")
	appendPar := flag.Int("append-parallelism", 0, "ingestion worker budget for appends and compactions (0 = GOMAXPROCS)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty = off")
	flag.Parse()

	if *repos == "" {
		fmt.Fprintln(os.Stderr, "xquecd: -repos is required")
		flag.Usage()
		os.Exit(2)
	}
	srv, err := server.New(server.Config{
		RepoDir:           *repos,
		PoolSize:          *pool,
		PlanCacheSize:     *plans,
		MaxConcurrent:     *maxConc,
		QueryTimeout:      *timeout,
		FlushEvery:        *flushItems,
		QueryParallelism:  *queryPar,
		PartialResults:    *partial,
		HedgeAfter:        *hedge,
		ShardFanout:       *shardFanout,
		CompactAfter:      *compactAfter,
		MaxAppendBytes:    *maxAppend,
		AppendParallelism: *appendPar,
	})
	if err != nil {
		log.Fatalf("xquecd: %v", err)
	}
	if *pprofAddr != "" {
		// Side listener so profiling endpoints never share the public
		// address; the import registers the handlers on DefaultServeMux.
		go func() {
			log.Printf("xquecd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("xquecd: pprof listener: %v", err)
			}
		}()
	}
	names, err := srv.Pool().Available()
	if err != nil {
		log.Fatalf("xquecd: %v", err)
	}
	log.Printf("xquecd: serving %d repositories from %s on %s (pool=%d plans=%d timeout=%v)",
		len(names), *repos, *addr, *pool, *plans, *timeout)
	for _, n := range names {
		log.Printf("xquecd:   repo %s", n)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("xquecd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("xquecd: %v", err)
	}
	<-done
}
