package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

const (
	// compactEvery is the number of commits between compactions; one
	// epoch is compactEvery commits and one compaction.
	compactEvery = 16
	// appendScale sizes each appended document (about 19 KB).
	appendScale = 0.02
	// queriesPerStep is how many round-robin queries follow each commit.
	queriesPerStep = 2
)

// appendDocs are the documents one epoch appends, each from its own
// seed derived from the run's seed.
func appendDocs(seed int64) [][]byte {
	docs := make([][]byte, compactEvery)
	for k := range docs {
		docs[k] = datagen.XMark(datagen.XMarkConfig{Scale: appendScale, Seed: seed*7919 + int64(k) + 1})
	}
	return docs
}

// appendEnv is a base repository saved to disk.
type appendEnv struct {
	dir  string
	base string // base repository file
}

// openEpoch opens the base repository from disk and a Writer over it
// bound to a fresh manifest in the epoch's directory.
func (e *appendEnv) openEpoch(name string) (*xquec.Writer, string, error) {
	dir := filepath.Join(e.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	db, err := xquec.Open(e.base)
	if err != nil {
		return nil, "", err
	}
	w, err := xquec.NewWriter(db, compressOptions())
	if err != nil {
		return nil, "", err
	}
	w.BindFile(filepath.Join(dir, "repo"))
	return w, dir, nil
}

// appendResult is one timed append-read loop.
type appendResult struct {
	classes       []mixClass
	n             int           // completed queries
	busy          time.Duration // summed time of timed operations
	epochs        []float64     // queries per second of each epoch's timed operations
	all           []float64     // every query latency in ms
	appends       []float64     // Append + Commit, ms
	compacts      []float64     // Compact, s
	stored        []float64     // per commit: bytes on disk / input bytes
	resident      []float64     // per commit: ResidentBytes / input bytes
	queryMallocs  uint64
	before, after counters
	qts           []queryTrace

	validate, commit, commitIngest, commitPersist []float64 // us, ms, ms, ms
	commitPhases                                  ingestDelta
	fuse                                          ingestDelta // loads inside queries
	segments                                      []float64
	written, appended                             int64
	compactIngest                                 []float64 // s
}

// rate is the median over epochs of completed queries per second of
// timed operations (appends, commits, compactions and queries).
func (l *appendResult) rate() float64 { return median(l.epochs) }

// appendLoop runs whole epochs until dur of timed operations has
// passed. Each epoch restarts from the base repository, so the corpus a
// run measures does not grow with how fast the run goes.
func appendLoop(e *appendEnv, baseLen int, docs [][]byte, tr *tracer, dur time.Duration, chk *checker, next *int) (*appendResult, error) {
	qs := xmarkq.Queries()
	l := &appendResult{classes: make([]mixClass, len(qs))}
	for i, q := range qs {
		l.classes[i] = mixClass{name: q.ID, weight: 1}
	}
	var buf bytes.Buffer
	ops := int64(0)
	query := func(db *xquec.Database, k int) {
		i := *next % len(qs)
		*next++
		q := qs[i]
		l.segments = append(l.segments, float64(db.Segments()))
		b0 := storage.LoadBuildTotals()
		m0 := memStats()
		lat, err := measureQuery(tr, int64(len(l.qts)), db, q.ID, q.Text, &buf, &l.qts)
		m1 := memStats()
		l.fuse = l.fuse.add(ingestSince(b0))
		l.busy += lat
		if err != nil {
			chk.fail()
			return
		}
		l.n++
		l.queryMallocs += m1.Mallocs - m0.Mallocs
		l.classes[i].samples = append(l.classes[i].samples, ms(lat))
		l.all = append(l.all, ms(lat))
		chk.observe(stateKey(k, q.ID), sha256.Sum256(buf.Bytes()))
	}
	l.before = readCounters()
	for epoch := 0; l.busy < dur; epoch++ {
		w, dir, err := e.openEpoch("epoch-" + strconv.Itoa(epoch))
		if err != nil {
			return nil, err
		}
		input := int64(baseLen)
		busy0, n0 := l.busy, l.n
		var db *xquec.Database
		for k := 1; k <= compactEvery; k++ {
			doc := docs[k-1]
			ops++
			sp := tr.begin("xquec.append", -1, -ops)
			b0 := storage.LoadBuildTotals()
			t0 := time.Now()
			err := w.Append(doc)
			tv := time.Since(t0)
			tr.end(sp)
			if err != nil {
				chk.fail()
				break
			}
			files, err := fileStates(dir)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("xquec.commit", -1, -ops)
			t1 := time.Now()
			db, err = w.Commit()
			tc := time.Since(t1)
			tr.end(sp)
			ing := ingestSince(b0)
			l.busy += tv + tc
			if err != nil {
				chk.fail()
				break
			}
			chk.ok()
			l.appends = append(l.appends, ms(tv+tc))
			l.validate = append(l.validate, us(tv))
			l.commit = append(l.commit, ms(tc))
			l.commitIngest = append(l.commitIngest, ms(ing.total()))
			l.commitPersist = append(l.commitPersist, ms(tc-ing.total()))
			l.commitPhases = l.commitPhases.add(ing)
			written, err := changedBytes(dir, files)
			if err != nil {
				return nil, err
			}
			l.written += written
			l.appended += int64(len(doc))
			input += int64(len(doc))
			stored, err := dirBytes(dir)
			if err != nil {
				return nil, err
			}
			l.stored = append(l.stored, float64(stored)/float64(input))
			l.resident = append(l.resident, float64(db.ResidentBytes())/float64(input))
			for j := 0; j < queriesPerStep; j++ {
				query(db, k)
			}
			if k < compactEvery {
				continue
			}
			ops++
			sp = tr.begin("xquec.compact", -1, -ops)
			b0 = storage.LoadBuildTotals()
			t0 = time.Now()
			db, err = w.Compact(context.Background())
			tk := time.Since(t0)
			tr.end(sp)
			l.busy += tk
			if err != nil {
				chk.fail()
				break
			}
			chk.ok()
			l.compacts = append(l.compacts, tk.Seconds())
			l.compactIngest = append(l.compactIngest, ingestSince(b0).total().Seconds())
			for j := 0; j < queriesPerStep; j++ {
				query(db, k)
			}
		}
		l.epochs = append(l.epochs, float64(l.n-n0)/(l.busy-busy0).Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	l.after = readCounters()
	return l, nil
}

// fileStates records size and modification time of each file in dir.
func fileStates(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[e.Name()] = fmt.Sprint(info.Size(), info.ModTime().UnixNano())
	}
	return out, nil
}

// changedBytes sums the sizes of the files in dir created or rewritten
// since before was recorded.
func changedBytes(dir string, before map[string]string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if before[e.Name()] != fmt.Sprint(info.Size(), info.ModTime().UnixNano()) {
			n += info.Size()
		}
	}
	return n, nil
}

// runAppendRead is append-read: one client interleaving writes with
// reads. Each step appends and commits one small XMark document through
// a Writer bound to a file, then runs the next two of the ten
// round-robin queries on the new snapshot; Compact runs every 16
// commits. The storage loader works three ways here — small-document
// ingest on commit, the fused-store re-ingest on the first
// non-scatterable query after a commit, and the cost-model re-plan at
// compaction — and segment analysis, merge and persistence work only
// here.
func runAppendRead(cfg config) (*outcome, error) {
	doc := xmarkDoc(cfg.seed)
	docs := appendDocs(cfg.seed)
	out := newOutcome()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var env *appendEnv
	var setups []float64
	for r := 0; r < reps; r++ {
		if env != nil {
			os.RemoveAll(env.dir)
		}
		t0 := time.Now()
		db, err := xquec.Compress(doc, compressOptions())
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.tmpDir(), "append-")
		if err != nil {
			return nil, err
		}
		env = &appendEnv{dir: dir, base: filepath.Join(dir, "base.xqc")}
		if err := db.SaveFile(env.base); err != nil {
			return nil, err
		}
		w, _, err := env.openEpoch("warm-up")
		if err != nil {
			return nil, err
		}
		for _, q := range xmarkq.Queries() {
			if err := runQuery(w.DB(), q.Text, io.Discard); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", q.ID, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(env.dir)
	out.set("setup_s", "s", median(setups), len(setups), "Compress with the ten queries as workload, SaveFile, Open, NewWriter, one warm-up pass; median of builds")

	chk := newChecker()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	next := 0
	if !cfg.trace {
		l, err := appendLoop(env, len(doc), docs, nil, dur, chk, &next)
		if err != nil {
			return nil, err
		}
		out.setAppendLoop(l)
	} else {
		plain, err := appendLoop(env, len(doc), docs, nil, dur/2, chk, &next)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := appendLoop(env, len(doc), docs, tr, dur/2, chk, &next)
		if err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		out.setQueryLayers(spans, traced.qts)
		out.setLoopCounters(traced.before, traced.after, traced.n)
		out.setAppendLayers(traced)
		out.setAppendLoop(plain)
		p0, p1 := median(plain.appends), median(traced.appends)
		out.set("trace.overhead_frac", "ratio", p1/p0-1, len(traced.appends),
			fmt.Sprintf("append_p50_ms untraced %.3f, traced %.3f", p0, p1))
		base, err := storage.OpenFile(env.base)
		if err != nil {
			return nil, err
		}
		if err := out.setFrontEnd(base, workloadTexts(), 20); err != nil {
			return nil, err
		}
		if err := out.setSearch(docs, 1); err != nil {
			return nil, err
		}
		if err := writeSpans(cfg.spanPath(), spans); err != nil {
			return nil, err
		}
		out.linef("spans %d written to %s", len(spans), cfg.spanPath())
	}

	oracle := &reingestOracle{base: doc, docs: docs}
	texts := map[string]string{}
	for _, q := range xmarkq.Queries() {
		texts[q.ID] = q.Text
	}
	out.failed, out.mismatch = chk.verify(func(key string) (digest, error) {
		ks, id, _ := strings.Cut(key, "|")
		k, err := strconv.Atoi(ks)
		if err != nil {
			return digest{}, err
		}
		return oracle.digest(k, texts[id])
	})
	out.attempted = chk.attempted
	return out, nil
}

func (o *outcome) setAppendLoop(l *appendResult) {
	o.set("queries_per_s", "1/s", l.rate(), len(l.epochs), "median over epochs of completed queries / summed time of appends, commits, compactions and queries")
	o.setLatency(l.classes, l.all)
	o.set("allocs_per_query", "count", ratio(float64(l.queryMallocs), float64(l.n)), l.n, "Mallocs delta inside queries / queries")
	o.set("stored_bytes_per_input_byte", "ratio", mean(l.stored), len(l.stored), "mean over commits of on-disk set bytes / input bytes so far")
	o.set("resident_bytes_per_input_byte", "ratio", mean(l.resident), len(l.resident), "mean over commits of ResidentBytes / input bytes so far")
	o.set("append_p50_ms", "ms", median(l.appends), len(l.appends), "Writer.Append + Commit")
	if pm := tailPercentile(len(l.appends), tailLadder); pm > 0 {
		p := strconv.FormatFloat(float64(pm)/10, 'f', -1, 64)
		o.set("append_p"+p+"_ms", "ms", quantile(l.appends, float64(pm)/1000), len(l.appends),
			fmt.Sprintf("%d samples beyond", len(l.appends)*(1000-pm)/1000))
	}
	o.set("compact_s", "s", median(l.compacts), len(l.compacts), "median Writer.Compact")
}

func (o *outcome) setAppendLayers(l *appendResult) {
	commits := len(l.commit)
	o.setIngest(l.commitPhases, commits, "commit")
	o.set("segment.append_validate_us", "us", median(l.validate), len(l.validate), "median Writer.Append")
	o.set("segment.commit_ms", "ms", median(l.commit), commits, "median Writer.Commit")
	o.set("segment.commit_ingest_ms", "ms", median(l.commitIngest), commits, "median LoadBuildTotals delta within Commit")
	o.set("segment.commit_persist_ms", "ms", median(l.commitPersist), commits, "median Commit - its ingest")
	o.set("segment.fuse_loads_per_commit", "count", ratio(float64(l.fuse.loads), float64(commits)), commits, "loads inside queries / commits")
	o.set("segment.fuse_ms", "ms", ratio(ms(l.fuse.total()), float64(l.fuse.loads)), int(l.fuse.loads), "LoadBuildTotals time inside queries / loads")
	o.set("segment.segments_mean", "count", mean(l.segments), len(l.segments), "Database.Segments at query time")
	o.set("segment.bytes_written_per_input_byte", "ratio", ratio(float64(l.written), float64(l.appended)), commits, "bytes of files created or rewritten by commits / appended bytes")
	o.set("segment.compact_ingest_s", "s", median(l.compactIngest), len(l.compactIngest), "median LoadBuildTotals delta within Compact")
}
