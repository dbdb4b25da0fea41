package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"xquec"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

// runAnalytic is xmark-analytic: one client in a closed loop running
// the ten XMark queries round-robin through Database.Execute with a
// zero QueryOptions, then WriteXML and Close, over a single repository
// at scale 1. Evaluation does almost all the work; shard, segment and
// server do nothing.
func runAnalytic(cfg config) (*outcome, error) {
	doc := xmarkDoc(cfg.seed)
	out := newOutcome()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var db *xquec.Database
	var setups []float64
	var ingest ingestDelta
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		before := storage.LoadBuildTotals()
		var err error
		db, err = xquec.Compress(doc, compressOptions())
		if err != nil {
			return nil, err
		}
		ingest = ingestSince(before)
		for _, q := range xmarkq.Queries() {
			if err := runQuery(db, q.Text, io.Discard); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", q.ID, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.set("setup_s", "s", median(setups), len(setups), "Compress with the ten queries as workload, then one warm-up pass; median of builds")
	out.set("stored_bytes_per_input_byte", "ratio", float64(len(db.Bytes()))/float64(len(doc)), 0, fmt.Sprintf("%d serialized bytes / %d input bytes", len(db.Bytes()), len(doc)))
	out.set("resident_bytes_per_input_byte", "ratio", float64(db.ResidentBytes())/float64(len(doc)), 0, fmt.Sprintf("%d resident bytes / %d input bytes", db.ResidentBytes(), len(doc)))

	chk := newChecker()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		l := analyticLoop(db, nil, dur, chk)
		out.setAnalyticLoop(l)
	} else {
		plain := analyticLoop(db, nil, dur/2, chk)
		tr := newTracer()
		traced := analyticLoop(db, tr, dur/2, chk)
		spans := tr.snapshot()
		out.setQueryLayers(spans, traced.qts)
		out.setAnalyticLoop(plain)
		out.setLoopCounters(traced.before, traced.after, traced.n)
		out.setIngest(ingest, 1, "setup")
		out.set("trace.overhead_frac", "ratio", 1-traced.rate()/plain.rate(), traced.n,
			fmt.Sprintf("queries_per_s untraced %.2f, traced %.2f", plain.rate(), traced.rate()))
		st, err := storage.LoadBinary(db.Bytes())
		if err != nil {
			return nil, err
		}
		if err := out.setFrontEnd(st, workloadTexts(), 20); err != nil {
			return nil, err
		}
		if err := out.setSearch([][]byte{doc}, 3); err != nil {
			return nil, err
		}
		if err := writeSpans(cfg.spanPath(), spans); err != nil {
			return nil, err
		}
		out.linef("spans %d written to %s", len(spans), cfg.spanPath())
	}

	oracle := newReferenceOracle(doc)
	texts := map[string]string{}
	for _, q := range xmarkq.Queries() {
		texts[q.ID] = q.Text
	}
	out.failed, out.mismatch = chk.verify(func(id string) (digest, error) { return oracle.digest(texts[id]) })
	out.attempted = chk.attempted
	return out, nil
}

// analyticResult is one timed analytic loop.
type analyticResult struct {
	classes       []mixClass
	n             int
	busy          time.Duration // summed query latency
	passes        []float64     // queries per second of each round-robin pass
	all           []float64     // every latency in ms
	before, after counters
	qts           []queryTrace
}

// rate is the median over round-robin passes of completed queries per
// second of query time; the client does nothing else but check outputs,
// which is not timed. A pass that a stall of the host lands in is an
// outlier the median drops.
func (l *analyticResult) rate() float64 { return median(l.passes) }

func analyticLoop(db *xquec.Database, tr *tracer, dur time.Duration, chk *checker) *analyticResult {
	qs := xmarkq.Queries()
	l := &analyticResult{classes: make([]mixClass, len(qs))}
	for i, q := range qs {
		l.classes[i] = mixClass{name: q.ID, weight: 1}
	}
	var buf bytes.Buffer
	var pass time.Duration
	done := 0
	l.before = readCounters()
	for i := 0; l.busy < dur || i%len(qs) != 0; i++ {
		q := qs[i%len(qs)]
		lat, err := measureQuery(tr, int64(len(l.qts)), db, q.ID, q.Text, &buf, &l.qts)
		l.busy += lat
		pass += lat
		if err != nil {
			chk.fail()
		} else {
			l.n++
			done++
			l.classes[i%len(qs)].samples = append(l.classes[i%len(qs)].samples, ms(lat))
			l.all = append(l.all, ms(lat))
			chk.observe(q.ID, sha256.Sum256(buf.Bytes()))
		}
		if i%len(qs) == len(qs)-1 {
			l.passes = append(l.passes, float64(done)/pass.Seconds())
			pass, done = 0, 0
		}
	}
	l.after = readCounters()
	return l
}

func (o *outcome) setAnalyticLoop(l *analyticResult) {
	o.set("queries_per_s", "1/s", l.rate(), len(l.passes), "median over round-robin passes of completed queries / summed Execute-to-Close time")
	o.setLatency(l.classes, l.all)
	o.set("allocs_per_query", "count", ratio(float64(l.after.mem.Mallocs-l.before.mem.Mallocs), float64(l.n)), l.n, "process Mallocs delta / queries")
}
