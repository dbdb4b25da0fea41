package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"xquec/internal/shard"
	"xquec/internal/storage"
	"xquec/internal/xpar"
)

// latencyBounds are the histogram bucket upper bounds in seconds; the
// implicit final bucket is +Inf.
var latencyBounds = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// programLenBounds are the compiled-program length histogram bucket
// upper bounds in instructions; the implicit final bucket is +Inf.
var programLenBounds = [...]int64{4, 8, 16, 32, 64, 128, 256}

// Metrics is the server's observability surface: atomic counters and a
// fixed-bucket latency histogram, exported on /metrics in Prometheus
// text exposition format with no external dependencies. All methods
// are safe for concurrent use.
type Metrics struct {
	QueriesTotal  atomic.Int64 // completed /query requests, any outcome
	StreamQueries atomic.Int64 // subset served via /query/stream
	QueryErrors   atomic.Int64 // failed with a query/repo error
	Timeouts      atomic.Int64 // aborted by deadline or client disconnect
	InFlight      atomic.Int64 // gauge: queries currently evaluating

	RepoHits       atomic.Int64 // repository pool hits
	RepoMisses     atomic.Int64 // repository pool misses (loads)
	PlanHits       atomic.Int64 // plan cache hits
	PlanMisses     atomic.Int64 // plan cache misses (prepares)
	PlanEvictions  atomic.Int64 // plans evicted from the cache (LRU)
	PlanCacheBytes atomic.Int64 // gauge: resident plan-cache bytes (CostBytes sum)

	ResultItems atomic.Int64 // result sequence items returned
	ResultBytes atomic.Int64 // serialized result bytes returned

	// Write-path traffic: documents appended and committed via /append,
	// their uncompressed bytes, failed appends, compactions completed
	// and failed, and a gauge of compactions currently running.
	AppendsTotal       atomic.Int64
	AppendBytes        atomic.Int64
	AppendErrors       atomic.Int64
	CompactionsTotal   atomic.Int64
	CompactionErrors   atomic.Int64
	CompactionsRunning atomic.Int64

	// segments, when set, snapshots per-repository segment counts for
	// the repositories this server has appended to (set once at server
	// construction, before any traffic).
	segments func() map[string]int64

	// resident, when set, snapshots the in-memory bytes of every
	// pool-resident repository (set once at server construction).
	resident func() map[string]int64

	// Compaction wall-clock duration, observed once per completed
	// compaction (synchronous or background).
	compCount atomic.Int64
	compSumUs atomic.Int64
	compBkt   [len(latencyBounds) + 1]atomic.Int64

	latCount atomic.Int64
	latSumUs atomic.Int64 // microseconds, to keep the sum integral
	latBkt   [len(latencyBounds) + 1]atomic.Int64

	// Time-to-first-item on /query/stream: how long a streaming client
	// waits before the first result byte is flushed — the latency the
	// pull-based pipeline is designed to keep flat as results grow.
	fbCount atomic.Int64
	fbSumUs atomic.Int64
	fbBkt   [len(latencyBounds) + 1]atomic.Int64

	// Compiled-program length (instructions), observed once per plan
	// compile (a plan-cache miss whose prepare succeeded).
	progCount atomic.Int64
	progSum   atomic.Int64
	progBkt   [len(programLenBounds) + 1]atomic.Int64
}

// ObserveProgramLen records one compiled program's instruction count.
func (m *Metrics) ObserveProgramLen(n int) {
	m.progCount.Add(1)
	m.progSum.Add(int64(n))
	for i, b := range programLenBounds {
		if int64(n) <= b {
			m.progBkt[i].Add(1)
			return
		}
	}
	m.progBkt[len(programLenBounds)].Add(1)
}

// ObserveLatency records one query's wall-clock duration.
func (m *Metrics) ObserveLatency(d time.Duration) {
	observe(d, &m.latCount, &m.latSumUs, &m.latBkt)
}

// ObserveFirstByte records a streaming query's time-to-first-item.
func (m *Metrics) ObserveFirstByte(d time.Duration) {
	observe(d, &m.fbCount, &m.fbSumUs, &m.fbBkt)
}

// ObserveCompaction records one completed compaction's duration.
func (m *Metrics) ObserveCompaction(d time.Duration) {
	observe(d, &m.compCount, &m.compSumUs, &m.compBkt)
}

func observe(d time.Duration, count, sumUs *atomic.Int64, bkt *[len(latencyBounds) + 1]atomic.Int64) {
	count.Add(1)
	sumUs.Add(d.Microseconds())
	s := d.Seconds()
	for i, b := range latencyBounds {
		if s <= b {
			bkt[i].Add(1)
			return
		}
	}
	bkt[len(latencyBounds)].Add(1)
}

// Snapshot is a point-in-time JSON-friendly view of the counters.
type Snapshot struct {
	QueriesTotal    int64   `json:"queries_total"`
	StreamQueries   int64   `json:"stream_queries"`
	QueryErrors     int64   `json:"query_errors"`
	Timeouts        int64   `json:"timeouts"`
	InFlight        int64   `json:"in_flight"`
	RepoHits        int64   `json:"repo_hits"`
	RepoMisses      int64   `json:"repo_misses"`
	PlanHits        int64   `json:"plan_hits"`
	PlanMisses      int64   `json:"plan_misses"`
	PlanEvictions   int64   `json:"plan_evictions"`
	PlanCacheBytes  int64   `json:"plan_cache_bytes"`
	ResultItems     int64   `json:"result_items"`
	ResultBytes     int64   `json:"result_bytes"`
	LatencyMeanMs   float64 `json:"latency_mean_ms"`
	FirstByteMeanMs float64 `json:"first_byte_mean_ms"`

	// Write-path counters: /append traffic, compactions, and the
	// per-repository segment counts of appended-to repositories.
	AppendsTotal       int64            `json:"appends_total"`
	AppendBytes        int64            `json:"append_bytes_total"`
	AppendErrors       int64            `json:"append_errors"`
	CompactionsTotal   int64            `json:"compactions_total"`
	CompactionErrors   int64            `json:"compaction_errors"`
	CompactionsRunning int64            `json:"compactions_running"`
	CompactionMeanMs   float64          `json:"compaction_mean_ms"`
	RepoSegments       map[string]int64 `json:"repo_segments,omitempty"`

	// Per-repository in-memory size of every pool-resident repository
	// (the xquecd_repo_resident_bytes gauge).
	RepoResidentBytes map[string]int64 `json:"repo_resident_bytes,omitempty"`

	// ValueDecodes counts individual container-value decompressions
	// (process-wide): with pull-based results it advances only for items
	// consumers actually read.
	ValueDecodes int64 `json:"value_decodes"`

	// Decode scratch-pool traffic (process-wide, from internal/storage):
	// gets is how many pooled decode buffers were handed out, allocs how
	// many were freshly allocated — the gap is allocation-free reuse.
	DecodeScratchGets   int64 `json:"decode_scratch_gets"`
	DecodeScratchAllocs int64 `json:"decode_scratch_allocs"`

	// Ingestion pipeline totals (process-wide, over all storage.Load
	// calls — nonzero only when this process compiled repositories).
	IngestLoads      int64 `json:"ingest_loads"`
	IngestParseNs    int64 `json:"ingest_parse_ns"`
	IngestClassifyNs int64 `json:"ingest_classify_ns"`
	IngestTrainNs    int64 `json:"ingest_train_ns"`
	IngestEncodeNs   int64 `json:"ingest_encode_ns"`
	IngestIndexNs    int64 `json:"ingest_index_ns"`

	// Intra-query worker-pool activity (process-wide, from internal/xpar):
	// how many evaluations were partitioned, the summed partition count,
	// and how many pool workers are running right now.
	ParallelScans       int64 `json:"parallel_scans"`
	ParallelPartitions  int64 `json:"parallel_partitions"`
	ParallelWorkersBusy int64 `json:"parallel_workers_busy"`

	// Scatter-gather activity over sharded and segmented repositories
	// (process-wide, from internal/shard): queries scattered vs run on
	// the fused fallback, shard/segment streams dispatched/failed,
	// straggler hedges launched/won, cursors that completed partial, and
	// total merged items.
	ShardScatterQueries  int64 `json:"shard_scatter_queries"`
	ShardFallbackQueries int64 `json:"shard_fallback_queries"`
	ShardStreams         int64 `json:"shard_streams"`
	ShardFailures        int64 `json:"shard_failures"`
	ShardHedgesLaunched  int64 `json:"shard_hedges_launched"`
	ShardHedgeWins       int64 `json:"shard_hedge_wins"`
	ShardPartialResults  int64 `json:"shard_partial_results"`
	ShardMergedItems     int64 `json:"shard_merged_items"`
}

// Snapshot captures the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		QueriesTotal:   m.QueriesTotal.Load(),
		QueryErrors:    m.QueryErrors.Load(),
		Timeouts:       m.Timeouts.Load(),
		InFlight:       m.InFlight.Load(),
		RepoHits:       m.RepoHits.Load(),
		RepoMisses:     m.RepoMisses.Load(),
		PlanHits:       m.PlanHits.Load(),
		PlanMisses:     m.PlanMisses.Load(),
		PlanEvictions:  m.PlanEvictions.Load(),
		PlanCacheBytes: m.PlanCacheBytes.Load(),
		ResultItems:    m.ResultItems.Load(),
		ResultBytes:    m.ResultBytes.Load(),
	}
	s.StreamQueries = m.StreamQueries.Load()
	if n := m.latCount.Load(); n > 0 {
		s.LatencyMeanMs = float64(m.latSumUs.Load()) / float64(n) / 1000
	}
	if n := m.fbCount.Load(); n > 0 {
		s.FirstByteMeanMs = float64(m.fbSumUs.Load()) / float64(n) / 1000
	}
	s.AppendsTotal = m.AppendsTotal.Load()
	s.AppendBytes = m.AppendBytes.Load()
	s.AppendErrors = m.AppendErrors.Load()
	s.CompactionsTotal = m.CompactionsTotal.Load()
	s.CompactionErrors = m.CompactionErrors.Load()
	s.CompactionsRunning = m.CompactionsRunning.Load()
	if n := m.compCount.Load(); n > 0 {
		s.CompactionMeanMs = float64(m.compSumUs.Load()) / float64(n) / 1000
	}
	if m.segments != nil {
		if counts := m.segments(); len(counts) > 0 {
			s.RepoSegments = counts
		}
	}
	if m.resident != nil {
		if sizes := m.resident(); len(sizes) > 0 {
			s.RepoResidentBytes = sizes
		}
	}
	s.ValueDecodes = storage.DecodeOps()
	s.DecodeScratchGets, s.DecodeScratchAllocs = storage.ScratchStats()
	bt := storage.LoadBuildTotals()
	s.IngestLoads = bt.Loads
	s.IngestParseNs = bt.ParseNs
	s.IngestClassifyNs = bt.ClassifyNs
	s.IngestTrainNs = bt.TrainNs
	s.IngestEncodeNs = bt.EncodeNs
	s.IngestIndexNs = bt.IndexNs
	ps := xpar.Snapshot()
	s.ParallelScans = ps.Scans
	s.ParallelPartitions = ps.Partitions
	s.ParallelWorkersBusy = ps.Busy
	ss := shard.Snapshot()
	s.ShardScatterQueries = ss.ScatterQueries
	s.ShardFallbackQueries = ss.FallbackQueries
	s.ShardStreams = ss.ShardStreams
	s.ShardFailures = ss.ShardFailures
	s.ShardHedgesLaunched = ss.HedgesLaunched
	s.ShardHedgeWins = ss.HedgeWins
	s.ShardPartialResults = ss.PartialResults
	s.ShardMergedItems = ss.MergedItems
	return s
}

// WritePrometheus writes the metrics in Prometheus text exposition
// format (version 0.0.4).
func (m *Metrics) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("xquecd_queries_total", "Queries served (any outcome).", m.QueriesTotal.Load())
	counter("xquecd_stream_queries_total", "Queries served via /query/stream.", m.StreamQueries.Load())
	counter("xquecd_query_errors_total", "Queries failed with an error.", m.QueryErrors.Load())
	counter("xquecd_query_timeouts_total", "Queries aborted by deadline or disconnect.", m.Timeouts.Load())
	counter("xquecd_repo_cache_hits_total", "Repository pool hits.", m.RepoHits.Load())
	counter("xquecd_repo_cache_misses_total", "Repository pool misses.", m.RepoMisses.Load())
	counter("xquecd_plan_cache_hits_total", "Plan cache hits.", m.PlanHits.Load())
	counter("xquecd_plan_cache_misses_total", "Plan cache misses.", m.PlanMisses.Load())
	counter("xquecd_plan_cache_evictions_total", "Plans evicted from the plan cache (LRU).", m.PlanEvictions.Load())
	fmt.Fprintf(w, "# HELP xquecd_plan_cache_bytes Resident plan-cache size (compiled-program bytes).\n")
	fmt.Fprintf(w, "# TYPE xquecd_plan_cache_bytes gauge\nxquecd_plan_cache_bytes %d\n", m.PlanCacheBytes.Load())
	fmt.Fprintf(w, "# HELP xquecd_program_len Compiled program length in instructions.\n")
	fmt.Fprintf(w, "# TYPE xquecd_program_len histogram\n")
	cumL := int64(0)
	for i, b := range programLenBounds {
		cumL += m.progBkt[i].Load()
		fmt.Fprintf(w, "xquecd_program_len_bucket{le=\"%d\"} %d\n", b, cumL)
	}
	cumL += m.progBkt[len(programLenBounds)].Load()
	fmt.Fprintf(w, "xquecd_program_len_bucket{le=\"+Inf\"} %d\n", cumL)
	fmt.Fprintf(w, "xquecd_program_len_sum %d\n", m.progSum.Load())
	fmt.Fprintf(w, "xquecd_program_len_count %d\n", m.progCount.Load())
	counter("xquecd_result_items_total", "Result items returned.", m.ResultItems.Load())
	counter("xquecd_result_bytes_total", "Serialized result bytes returned.", m.ResultBytes.Load())

	counter("xquecd_appends_total", "Documents appended via /append.", m.AppendsTotal.Load())
	counter("xquecd_append_bytes_total", "Uncompressed bytes of appended documents.", m.AppendBytes.Load())
	counter("xquecd_append_errors_total", "Appends that failed (validation, ingest or persist).", m.AppendErrors.Load())
	counter("xquecd_compactions_total", "Compactions completed.", m.CompactionsTotal.Load())
	counter("xquecd_compaction_errors_total", "Compactions that failed.", m.CompactionErrors.Load())
	fmt.Fprintf(w, "# HELP xquecd_compactions_running Compactions currently running.\n")
	fmt.Fprintf(w, "# TYPE xquecd_compactions_running gauge\nxquecd_compactions_running %d\n", m.CompactionsRunning.Load())
	if m.segments != nil {
		if counts := m.segments(); len(counts) > 0 {
			names := make([]string, 0, len(counts))
			for name := range counts {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(w, "# HELP xquecd_repo_segments Segment count per appended-to repository.\n")
			fmt.Fprintf(w, "# TYPE xquecd_repo_segments gauge\n")
			for _, name := range names {
				fmt.Fprintf(w, "xquecd_repo_segments{repo=%q} %d\n", name, counts[name])
			}
		}
	}
	if m.resident != nil {
		if sizes := m.resident(); len(sizes) > 0 {
			names := make([]string, 0, len(sizes))
			for name := range sizes {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(w, "# HELP xquecd_repo_resident_bytes In-memory bytes per pool-resident repository.\n")
			fmt.Fprintf(w, "# TYPE xquecd_repo_resident_bytes gauge\n")
			for _, name := range names {
				fmt.Fprintf(w, "xquecd_repo_resident_bytes{repo=%q} %d\n", name, sizes[name])
			}
		}
	}

	counter("xquecd_value_decodes_total", "Individual container-value decompressions.", storage.DecodeOps())
	gets, allocs := storage.ScratchStats()
	counter("xquecd_decode_scratch_gets_total", "Pooled decode buffers handed out.", gets)
	counter("xquecd_decode_scratch_allocs_total", "Decode buffers freshly allocated (pool misses).", allocs)

	bt := storage.LoadBuildTotals()
	counter("xquecd_ingest_loads_total", "Repositories compiled in this process.", bt.Loads)
	seconds := func(name, help string, ns int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, float64(ns)/1e9)
	}
	seconds("xquecd_ingest_parse_seconds_total", "Ingestion time in the serial SAX pass.", bt.ParseNs)
	seconds("xquecd_ingest_classify_seconds_total", "Ingestion time in container type inference.", bt.ClassifyNs)
	seconds("xquecd_ingest_train_seconds_total", "Ingestion time training source models.", bt.TrainNs)
	seconds("xquecd_ingest_encode_seconds_total", "Ingestion time encoding and sorting containers.", bt.EncodeNs)
	seconds("xquecd_ingest_index_seconds_total", "Ingestion time bulk-loading the B+ index.", bt.IndexNs)

	ps := xpar.Snapshot()
	counter("xquecd_parallel_scan_total", "Partitioned (multi-worker) evaluations.", ps.Scans)
	fmt.Fprintf(w, "# HELP xquecd_parallel_scan_partitions Partitions per partitioned evaluation.\n")
	fmt.Fprintf(w, "# TYPE xquecd_parallel_scan_partitions histogram\n")
	cumP := int64(0)
	for i, b := range xpar.PartitionBounds() {
		cumP += ps.Buckets[i]
		fmt.Fprintf(w, "xquecd_parallel_scan_partitions_bucket{le=\"%d\"} %d\n", b, cumP)
	}
	cumP += ps.Buckets[len(ps.Buckets)-1]
	fmt.Fprintf(w, "xquecd_parallel_scan_partitions_bucket{le=\"+Inf\"} %d\n", cumP)
	fmt.Fprintf(w, "xquecd_parallel_scan_partitions_sum %d\n", ps.Partitions)
	fmt.Fprintf(w, "xquecd_parallel_scan_partitions_count %d\n", ps.Scans)
	fmt.Fprintf(w, "# HELP xquecd_parallel_workers_busy Intra-query pool workers currently running.\n")
	fmt.Fprintf(w, "# TYPE xquecd_parallel_workers_busy gauge\nxquecd_parallel_workers_busy %d\n", ps.Busy)

	ss := shard.Snapshot()
	counter("xquecd_shard_scatter_queries_total", "Queries scattered across shard or segment workers.", ss.ScatterQueries)
	counter("xquecd_shard_fallback_queries_total", "Sharded- or segmented-repository queries evaluated on the fused store.", ss.FallbackQueries)
	counter("xquecd_shard_streams_total", "Per-shard or per-segment evaluation streams dispatched (hedges included).", ss.ShardStreams)
	counter("xquecd_shard_failures_total", "Per-shard or per-segment evaluation streams that failed.", ss.ShardFailures)
	counter("xquecd_shard_hedges_launched_total", "Straggler hedge re-dispatches launched.", ss.HedgesLaunched)
	counter("xquecd_shard_hedge_wins_total", "Hedge streams that beat their primary.", ss.HedgeWins)
	counter("xquecd_shard_partial_results_total", "Scattered queries completed with a shard or segment dropped.", ss.PartialResults)
	counter("xquecd_shard_merged_items_total", "Items emitted by the scatter-gather merge.", ss.MergedItems)

	fmt.Fprintf(w, "# HELP xquecd_in_flight_queries Queries currently evaluating.\n")
	fmt.Fprintf(w, "# TYPE xquecd_in_flight_queries gauge\nxquecd_in_flight_queries %d\n", m.InFlight.Load())

	histogram := func(name, help string, count, sumUs *atomic.Int64, bkt *[len(latencyBounds) + 1]atomic.Int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		cum := int64(0)
		for i, b := range latencyBounds {
			cum += bkt[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(b, 'g', -1, 64), cum)
		}
		cum += bkt[len(latencyBounds)].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(sumUs.Load())/1e6)
		fmt.Fprintf(w, "%s_count %d\n", name, count.Load())
	}
	histogram("xquecd_query_duration_seconds", "Query latency.", &m.latCount, &m.latSumUs, &m.latBkt)
	histogram("xquecd_first_byte_seconds", "Streaming time-to-first-item.", &m.fbCount, &m.fbSumUs, &m.fbBkt)
	histogram("xquecd_compaction_seconds", "Compaction wall-clock duration.", &m.compCount, &m.compSumUs, &m.compBkt)
}
