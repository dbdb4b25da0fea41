package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/vm"
	"xquec/internal/xmarkq"
	"xquec/internal/xpar"
	"xquec/internal/xquery"
)

// setupReps is how many times a run builds its repository; setup_s is
// the median and the last build is the one measured.
const setupReps = 9

// xmarkScale is the size of every workload's main document: scale 1 is
// about 0.96 MB of XML.
const xmarkScale = 1

func xmarkDoc(seed int64) []byte {
	return datagen.XMark(datagen.XMarkConfig{Scale: xmarkScale, Seed: seed})
}

// workloadTexts are the ten XMark query texts, the application's query
// set handed to Options.WorkloadQueries (the paper's §3 setting).
func workloadTexts() []string {
	var texts []string
	for _, q := range xmarkq.Queries() {
		texts = append(texts, q.Text)
	}
	return texts
}

func compressOptions() xquec.Options {
	return xquec.Options{WorkloadQueries: workloadTexts()}
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ingestDelta is the storage loader's phase time between two readings
// of storage.LoadBuildTotals.
type ingestDelta struct {
	loads                                 int64
	parse, classify, train, encode, index time.Duration
}

func ingestSince(before storage.BuildTotals) ingestDelta {
	after := storage.LoadBuildTotals()
	return ingestDelta{
		loads:    after.Loads - before.Loads,
		parse:    time.Duration(after.ParseNs - before.ParseNs),
		classify: time.Duration(after.ClassifyNs - before.ClassifyNs),
		train:    time.Duration(after.TrainNs - before.TrainNs),
		encode:   time.Duration(after.EncodeNs - before.EncodeNs),
		index:    time.Duration(after.IndexNs - before.IndexNs),
	}
}

func (d ingestDelta) add(o ingestDelta) ingestDelta {
	return ingestDelta{
		loads: d.loads + o.loads, parse: d.parse + o.parse, classify: d.classify + o.classify,
		train: d.train + o.train, encode: d.encode + o.encode, index: d.index + o.index,
	}
}

func (d ingestDelta) total() time.Duration {
	return d.parse + d.classify + d.train + d.encode + d.index
}

// setIngest reports the loader's phase times per ingesting operation:
// d covers per of them (setups or commits).
func (o *outcome) setIngest(d ingestDelta, per int, what string) {
	note := "LoadBuildTotals delta per " + what
	p := float64(max(per, 1))
	o.set("storage.ingest_parse_s", "s", d.parse.Seconds()/p, per, note)
	o.set("storage.ingest_classify_s", "s", d.classify.Seconds()/p, per, note)
	o.set("storage.ingest_train_s", "s", d.train.Seconds()/p, per, note)
	o.set("storage.ingest_encode_s", "s", d.encode.Seconds()/p, per, note)
	o.set("storage.ingest_index_s", "s", d.index.Seconds()/p, per, note)
}

// counters are the program's exported process-wide counters, read
// before and after a loop.
type counters struct {
	mem          runtime.MemStats
	scratchGets  int64
	scratchAlloc int64
	xpar         xpar.Stats
	at           time.Time
}

func readCounters() counters {
	c := counters{mem: memStats(), xpar: xpar.Snapshot(), at: time.Now()}
	c.scratchGets, c.scratchAlloc = storage.ScratchStats()
	return c
}

// setLoopCounters reports the runtime, storage-decode and xpar figures
// of a loop that completed queries queries.
func (o *outcome) setLoopCounters(before, after counters, queries int) {
	n := float64(queries)
	wall := after.at.Sub(before.at)
	o.set("runtime.alloc_bytes_per_query", "B", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), n), queries, "TotalAlloc delta / queries")
	o.set("runtime.gc_cycles_per_1k_queries", "count", ratio(1000*float64(after.mem.NumGC-before.mem.NumGC), n), queries, "NumGC delta per 1000 queries")
	o.set("runtime.gc_pause_frac", "ratio", ratio(float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs), float64(wall)), queries, "GC pause / loop wall time")
	gets := float64(after.scratchGets - before.scratchGets)
	allocs := float64(after.scratchAlloc - before.scratchAlloc)
	reuse := 0.0
	if gets > 0 {
		reuse = 1 - allocs/gets
	}
	o.set("storage.scratch_reuse_ratio", "ratio", reuse, int(gets), "1 - allocs/gets from ScratchStats")
	scans := float64(after.xpar.Scans - before.xpar.Scans)
	o.set("xpar.scans_per_query", "count", ratio(scans, n), queries, "partitioned scans / queries")
	o.set("xpar.partitions_per_scan", "count", ratio(float64(after.xpar.Partitions-before.xpar.Partitions), scans), int(scans), "partitions / scans")
}

// queryTrace is the per-query record of a traced query loop.
type queryTrace struct {
	id      string
	allocs  float64 // Mallocs delta
	decodes float64 // storage.DecodeOps delta
}

// tracedQuery does runQuery's work through the calls it is made of,
// recording a span around each: Database.Prepare (parse and compile),
// Prepared.Execute (the program's Run and Prime: first item), the item
// loop (its self time is the time inside Results.Next) with one span
// per Item.AppendXML, and Results.Close. The output is WriteXML's:
// items separated by newlines.
func tracedQuery(tr *tracer, req int64, db *xquec.Database, text string, w *bytes.Buffer) error {
	root := tr.begin("query", -1, req)
	defer tr.end(root)
	sp := tr.begin("xquec.prepare", root, req)
	prep, err := db.Prepare(text)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("vm.first_item", root, req)
	res, err := prep.Execute(context.Background(), xquec.QueryOptions{})
	tr.end(sp)
	if err != nil {
		return err
	}
	drain := tr.begin("vm.drain", root, req)
	var buf []byte
	for first := true; ; first = false {
		it, ok, nerr := res.Next()
		if nerr != nil || !ok {
			err = nerr
			break
		}
		if !first {
			w.WriteByte('\n')
		}
		sp := tr.begin("xquec.serialize", drain, req)
		buf, err = it.AppendXML(buf[:0])
		tr.end(sp)
		if err != nil {
			break
		}
		w.Write(buf)
	}
	tr.end(drain)
	sp = tr.begin("xquec.close", root, req)
	cerr := res.Close()
	tr.end(sp)
	if err == nil {
		err = cerr
	}
	return err
}

// measureQuery runs one query, traced or not, into w and returns its
// latency (Execute through Close). In a traced run it also records the
// query's allocations and value decodes, read outside its spans.
func measureQuery(tr *tracer, req int64, db *xquec.Database, id, text string, w *bytes.Buffer, qt *[]queryTrace) (time.Duration, error) {
	w.Reset()
	if tr == nil {
		t0 := time.Now()
		err := runQuery(db, text, w)
		return time.Since(t0), err
	}
	m0 := memStats()
	d0 := storage.DecodeOps()
	t0 := time.Now()
	err := tracedQuery(tr, req, db, text, w)
	lat := time.Since(t0)
	d1 := storage.DecodeOps()
	m1 := memStats()
	*qt = append(*qt, queryTrace{id: id, allocs: float64(m1.Mallocs - m0.Mallocs), decodes: float64(d1 - d0)})
	return lat, err
}

// setQueryLayers reports the per-query layer figures of a traced query
// loop: for each layer the mean per query, and the median per query id
// under <name>.<id>. Layer times are span self times.
func (o *outcome) setQueryLayers(spans []span, qts []queryTrace) {
	self := selfTimes(spans)
	perReq := make([]map[string]float64, len(qts))
	for i := range perReq {
		perReq[i] = map[string]float64{}
	}
	for i, s := range spans {
		if s.req >= 0 && int(s.req) < len(qts) {
			perReq[s.req][s.name] += float64(self[i]) / 1e3
		}
	}
	type layer struct {
		name, unit, note string
		value            func(i int) float64
	}
	layers := []layer{
		{"vm.first_item_us", "us", "span around Prepared.Execute (Run + Prime)", func(i int) float64 { return perReq[i]["vm.first_item"] }},
		{"vm.drain_us", "us", "self time of the item loop: inside Results.Next", func(i int) float64 { return perReq[i]["vm.drain"] }},
		{"xquec.serialize_us", "us", "spans around Item.AppendXML", func(i int) float64 { return perReq[i]["xquec.serialize"] }},
		{"storage.value_decodes", "count", "DecodeOps delta per query", func(i int) float64 { return qts[i].decodes }},
		{"runtime.allocs", "count", "Mallocs delta per query", func(i int) float64 { return qts[i].allocs }},
	}
	for _, l := range layers {
		all := make([]float64, len(qts))
		byID := map[string][]float64{}
		for i, q := range qts {
			v := l.value(i)
			all[i] = v
			byID[q.id] = append(byID[q.id], v)
		}
		o.set(l.name, l.unit, mean(all), len(all), "mean per query; "+l.note)
		for id, vs := range byID {
			o.set(l.name+"."+id, l.unit, median(vs), len(vs), "median for "+id)
		}
	}
	o.setSpanLines(spans)
}

// setSpanLines adds one report line per span name: count and self time.
func (o *outcome) setSpanLines(spans []span) {
	self := layerSelf(spans)
	count := map[string]int{}
	for _, s := range spans {
		count[s.name]++
	}
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o.linef("span %-24s count=%-8d self_ms=%.3f", name, count[name], float64(self[name])/1e6)
	}
}

// setFrontEnd times the query front end from outside: xquery.Parse and
// vm.Compile against the store the program compiles on, reps times per
// text. It reports the mean over texts of each text's median.
func (o *outcome) setFrontEnd(st *storage.Store, texts []string, reps int) error {
	var parse, compile []float64
	for _, text := range texts {
		var p, c []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			expr, err := xquery.Parse(text)
			p = append(p, us(time.Since(t0)))
			if err != nil {
				return err
			}
			t0 = time.Now()
			_, err = vm.Compile(expr, st, text)
			c = append(c, us(time.Since(t0)))
			if err != nil {
				return err
			}
		}
		parse = append(parse, median(p))
		compile = append(compile, median(c))
	}
	o.set("xquery.parse_us", "us", mean(parse), len(texts), "xquery.Parse, mean over texts of the median of repeated calls")
	o.set("vm.compile_us", "us", mean(compile), len(texts), "vm.Compile, mean over texts of the median of repeated calls")
	return nil
}

// setSearch times xquec.PlanFromWorkload, the cost-model search that
// Compress runs for Options.WorkloadQueries, on each document.
func (o *outcome) setSearch(docs [][]byte, reps int) error {
	w, err := xquec.WorkloadFromQueries(workloadTexts()...)
	if err != nil {
		return err
	}
	var per []float64
	for _, doc := range docs {
		var ts []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, err := xquec.PlanFromWorkload(doc, w, 0); err != nil {
				return err
			}
			ts = append(ts, time.Since(t0).Seconds())
		}
		per = append(per, median(ts))
	}
	o.set("costmodel.search_s", "s", mean(per), len(docs), "xquec.PlanFromWorkload per document")
	return nil
}

// setLatency reports a workload's query latencies: the mix median, and
// the highest tail percentile with at least minBeyond samples beyond.
// The tail is printed, not gated (see README.md).
func (o *outcome) setLatency(classes []mixClass, all []float64) {
	n := len(all)
	for _, c := range classes {
		if len(c.samples) > 0 {
			o.linef("class %-8s n=%-6d p50_ms=%.4f p90_ms=%.4f p99_ms=%.4f max_ms=%.4f", c.name, len(c.samples),
				median(c.samples), quantile(c.samples, 0.9), quantile(c.samples, 0.99), quantile(c.samples, 1))
		}
	}
	o.set("query_p50_ms", "ms", mixMedian(classes), n, "median of the mix: per-class medians weighted by the class's share")
	if pm := tailPercentile(n, tailLadder); pm > 0 {
		p := strconv.FormatFloat(float64(pm)/10, 'f', -1, 64)
		o.set("query_p"+p+"_ms", "ms", quantile(all, float64(pm)/1000), n, fmt.Sprintf("%d samples beyond", n*(1000-pm)/1000))
	}
}
