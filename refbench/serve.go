package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xquec"
	"xquec/internal/server"
	"xquec/internal/shard"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

const (
	serveRepo    = "auction"
	serveClients = 2
	serveShards  = 2
	// servePersons is the number of persons in an XMark document at
	// scale 1, the range of the lookups' person ids.
	servePersons = 720
	// zipfS skews the person-id draw so that about four requests in
	// five hit the server's 256-entry plan cache: 720 persons give more
	// distinct lookup texts than the cache holds.
	zipfS = 1.1
)

// serveClasses is the request mix: 90% point lookups shaped like Q1
// and 10% spread over Q5, Q13 and Q20. Weights are the classes' shares.
var serveClasses = []struct {
	name   string
	weight int
	text   string
}{
	{"lookup", 27, ""},
	{"q5", 1, xmarkq.Q5},
	{"q13", 1, xmarkq.Q13},
	{"q20", 1, xmarkq.Q20},
}

// lookupText is Q1 asking for the given person instead of person0.
func lookupText(person int) string {
	return strings.Replace(xmarkq.Q1, `"person0"`, `"person`+strconv.Itoa(person)+`"`, 1)
}

// serveEnv is a repository saved as a shard set and served by the
// internal/server handler over loopback.
type serveEnv struct {
	dir  string
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
	tr   atomic.Pointer[tracer] // set while the traced half runs
}

func startServe(cfg config, doc []byte) (*serveEnv, error) {
	opts := compressOptions()
	opts.Shards = serveShards
	db, err := xquec.Compress(doc, opts)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpDir(), "serve-")
	if err != nil {
		return nil, err
	}
	if err := db.SaveFile(filepath.Join(dir, serveRepo+shard.ManifestExt)); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := server.New(server.Config{RepoDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serveEnv{dir: dir, srv: srv, url: "http://" + ln.Addr().String() + "/query", done: make(chan struct{})}
	e.hs = &http.Server{Handler: e.middleware(srv.Handler())}
	go func() {
		defer close(e.done)
		e.hs.Serve(ln)
	}()
	return e, nil
}

// middleware records a server.handler span around the server's handler
// while a tracer is installed, parented to the client's request span.
func (e *serveEnv) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := e.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		sp := tr.begin("server.handler", parent, req)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.done
	os.RemoveAll(e.dir)
}

// serveClient is one closed-loop client holding one keep-alive
// connection.
type serveClient struct {
	url  string
	hc   *http.Client
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int // Zipf rank -> person number
}

func newServeClient(url string, seed int64) *serveClient {
	rng := rand.New(rand.NewSource(seed))
	return &serveClient{
		url:  url,
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, servePersons-1),
		perm: rng.Perm(servePersons),
	}
}

func (c *serveClient) close() { c.hc.CloseIdleConnections() }

// draw picks the next request's class and text.
func (c *serveClient) draw() (int, string) {
	total := 0
	for _, sc := range serveClasses {
		total += sc.weight
	}
	r := c.rng.Intn(total)
	for i, sc := range serveClasses {
		if r < sc.weight {
			if i == 0 {
				return 0, lookupText(c.perm[c.zipf.Uint64()])
			}
			return i, sc.text
		}
		r -= sc.weight
	}
	panic("unreachable")
}

// reply is one answered request.
type reply struct {
	status int
	resp   server.QueryResponse
	rtt    time.Duration
}

// post sends one /query request; span is the client's request span,
// forwarded so the server's span can name it as parent.
func (c *serveClient) post(text string, span int, req int64) (reply, error) {
	body, err := json.Marshal(server.QueryRequest{Repo: serveRepo, Query: text})
	if err != nil {
		return reply{}, err
	}
	hreq, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if span >= 0 {
		hreq.Header.Set("X-Bench-Span", strconv.Itoa(span))
		hreq.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, rtt: rtt}
	if r.status == http.StatusOK {
		if err := json.Unmarshal(data, &r.resp); err != nil {
			return reply{}, err
		}
	}
	return r, nil
}

// serveRecord is one traced request.
type serveRecord struct {
	span   int
	evalMs float64
	rtt    time.Duration
	text   string
	cached bool
}

// serveResult is one timed serve loop.
type serveResult struct {
	classes       []mixClass
	n             int
	wall          time.Duration
	before, after counters
	srvBefore     server.Snapshot
	srvAfter      server.Snapshot
	shBefore      shard.Stats
	shAfter       shard.Stats
	records       []serveRecord
	done          []time.Duration // completion times since the loop started
	all           []float64       // every latency in ms
}

// rateWindow is the width of the windows serve-lookup's throughput is
// counted in.
const rateWindow = 100 * time.Millisecond

// rate is the median over rateWindow-wide windows of requests completed
// per second. A window that a stall of the host lands in is an outlier
// the median drops.
func (l *serveResult) rate() float64 {
	counts := make([]float64, int(l.wall/rateWindow))
	for _, d := range l.done {
		if w := int(d / rateWindow); w < len(counts) {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= rateWindow.Seconds()
	}
	return median(counts)
}

func serveLoop(e *serveEnv, tr *tracer, dur time.Duration, seed int64, round int, chk *checker) *serveResult {
	l := &serveResult{classes: make([]mixClass, len(serveClasses))}
	for i, sc := range serveClasses {
		l.classes[i] = mixClass{name: sc.name, weight: sc.weight}
	}
	e.tr.Store(tr)
	defer e.tr.Store(nil)
	var mu sync.Mutex
	var reqs atomic.Int64
	var wg sync.WaitGroup
	l.before, l.srvBefore, l.shBefore = readCounters(), e.srv.Metrics().Snapshot(), shard.Snapshot()
	deadline := l.before.at.Add(dur)
	for id := 0; id < serveClients; id++ {
		c := newServeClient(e.url, seed*1000+int64(round*serveClients+id))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			samples := make([][]float64, len(serveClasses))
			var all []float64
			var recs []serveRecord
			var done []time.Duration
			n := 0
			for time.Now().Before(deadline) {
				class, text := c.draw()
				req := reqs.Add(1)
				sp := tr.begin("client.request", -1, req)
				r, err := c.post(text, sp, req)
				tr.end(sp)
				if err != nil || r.status != http.StatusOK {
					chk.fail()
					continue
				}
				n++
				done = append(done, time.Since(l.before.at))
				samples[class] = append(samples[class], ms(r.rtt))
				all = append(all, ms(r.rtt))
				if tr != nil {
					recs = append(recs, serveRecord{span: sp, evalMs: r.resp.ElapsedMs, rtt: r.rtt, text: text, cached: r.resp.PlanCached})
				}
				chk.observe(text, sha256.Sum256([]byte(r.resp.Result)))
			}
			mu.Lock()
			defer mu.Unlock()
			l.n += n
			for i := range samples {
				l.classes[i].samples = append(l.classes[i].samples, samples[i]...)
			}
			l.records = append(l.records, recs...)
			l.done = append(l.done, done...)
			l.all = append(l.all, all...)
		}()
	}
	wg.Wait()
	l.after, l.srvAfter, l.shAfter = readCounters(), e.srv.Metrics().Snapshot(), shard.Snapshot()
	l.wall = l.after.at.Sub(l.before.at)
	return l
}

// runServe is serve-lookup: two closed-loop clients POSTing /query to
// the server handler over loopback, for a two-shard repository saved
// as .xqcs and opened through the server's pool with its default
// Config. The server path, plan-cache misses and shard scatter/merge
// dominate; evaluation is small.
func runServe(cfg config) (*outcome, error) {
	doc := xmarkDoc(cfg.seed)
	out := newOutcome()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var env *serveEnv
	var setups []float64
	var ingest ingestDelta
	for r := 0; r < reps; r++ {
		if env != nil {
			env.stop()
		}
		t0 := time.Now()
		before := storage.LoadBuildTotals()
		var err error
		if env, err = startServe(cfg, doc); err != nil {
			return nil, err
		}
		c := newServeClient(env.url, cfg.seed)
		for _, text := range []string{lookupText(0), xmarkq.Q5, xmarkq.Q13, xmarkq.Q20} {
			if rep, err := c.post(text, -1, 0); err != nil || rep.status != http.StatusOK {
				c.close()
				env.stop()
				return nil, fmt.Errorf("warm-up: status %d, %v", rep.status, err)
			}
		}
		c.close()
		ingest = ingestSince(before)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.stop()
	out.set("setup_s", "s", median(setups), len(setups), "Compress into 2 shards, SaveFile, server start, warm-up requests opening the pool; median of builds")
	stored, err := dirBytes(env.dir)
	if err != nil {
		return nil, err
	}
	out.set("stored_bytes_per_input_byte", "ratio", float64(stored)/float64(len(doc)), 0, fmt.Sprintf("%d bytes of .xqcs manifest and shard files / %d input bytes", stored, len(doc)))
	resident := env.srv.Pool().ResidentBytes()[serveRepo]
	out.set("resident_bytes_per_input_byte", "ratio", float64(resident)/float64(len(doc)), 0, fmt.Sprintf("%d Pool.ResidentBytes / %d input bytes", resident, len(doc)))

	chk := newChecker()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		out.setServeLoop(serveLoop(env, nil, dur, cfg.seed, 0, chk))
	} else {
		plain := serveLoop(env, nil, dur/2, cfg.seed, 0, chk)
		tr := newTracer()
		traced := serveLoop(env, tr, dur/2, cfg.seed, 1, chk)
		spans := tr.snapshot()
		if err := out.setServeLayers(env.dir, spans, traced, doc); err != nil {
			return nil, err
		}
		out.setIngest(ingest, 1, "setup")
		out.setServeLoop(plain)
		out.set("trace.overhead_frac", "ratio", 1-traced.rate()/plain.rate(), traced.n,
			fmt.Sprintf("queries_per_s untraced %.2f, traced %.2f", plain.rate(), traced.rate()))
		if err := writeSpans(cfg.spanPath(), spans); err != nil {
			return nil, err
		}
		out.linef("spans %d written to %s", len(spans), cfg.spanPath())
	}

	oracle := newReferenceOracle(doc)
	out.failed, out.mismatch = chk.verify(oracle.digest)
	out.attempted = chk.attempted
	return out, nil
}

func (o *outcome) setServeLoop(l *serveResult) {
	o.set("queries_per_s", "1/s", l.rate(), int(l.wall/rateWindow), fmt.Sprintf("%d clients, median over %v windows of completed requests per second", serveClients, rateWindow))
	o.setLatency(l.classes, l.all)
	o.set("allocs_per_query", "count", ratio(float64(l.after.mem.Mallocs-l.before.mem.Mallocs), float64(l.n)), l.n, "process Mallocs delta / requests (client and server)")
	plans := float64(l.srvAfter.PlanHits - l.srvBefore.PlanHits + l.srvAfter.PlanMisses - l.srvBefore.PlanMisses)
	o.linef("plan cache hit ratio %.3f over %d requests", ratio(float64(l.srvAfter.PlanHits-l.srvBefore.PlanHits), plans), int(plans))
}

func (o *outcome) setServeLayers(dir string, spans []span, l *serveResult, doc []byte) error {
	o.setLoopCounters(l.before, l.after, l.n)
	handler := map[int]time.Duration{} // client span -> handler duration
	for _, s := range spans {
		if s.name == "server.handler" {
			handler[s.parent] = time.Duration(s.end - s.start)
		}
	}
	var hs, evals, overhead, transport []float64
	missTexts := map[string]bool{}
	for _, r := range l.records {
		h, ok := handler[r.span]
		if !ok {
			continue
		}
		hs = append(hs, us(h))
		evals = append(evals, r.evalMs)
		overhead = append(overhead, us(h)-r.evalMs*1e3)
		transport = append(transport, us(r.rtt-h))
		if !r.cached && len(missTexts) < 200 {
			missTexts[r.text] = true
		}
	}
	o.set("server.handler_p50_us", "us", median(hs), len(hs), "span around Server.Handler()")
	o.set("server.handler_p99_us", "us", quantile(hs, 0.99), len(hs), "span around Server.Handler()")
	o.set("server.eval_ms", "ms", median(evals), len(evals), "median elapsed_ms of the responses")
	o.set("server.overhead_us", "us", median(overhead), len(overhead), "median handler - elapsed_ms: JSON, admission, plan cache, pool")
	o.set("client.transport_us", "us", median(transport), len(transport), "median round trip - handler")
	d := func(a, b int64) float64 { return float64(a - b) }
	s0, s1 := l.srvBefore, l.srvAfter
	o.set("server.plan_hit_ratio", "ratio", ratio(d(s1.PlanHits, s0.PlanHits), d(s1.PlanHits, s0.PlanHits)+d(s1.PlanMisses, s0.PlanMisses)), l.n, "Metrics().Snapshot() delta")
	o.set("server.pool_hit_ratio", "ratio", ratio(d(s1.RepoHits, s0.RepoHits), d(s1.RepoHits, s0.RepoHits)+d(s1.RepoMisses, s0.RepoMisses)), l.n, "Metrics().Snapshot() delta")
	h0, h1 := l.shBefore, l.shAfter
	scatter, fallback := d(h1.ScatterQueries, h0.ScatterQueries), d(h1.FallbackQueries, h0.FallbackQueries)
	o.set("shard.scatter_frac", "ratio", ratio(scatter, scatter+fallback), l.n, "scatter / (scatter + fallback), shard.Snapshot delta")
	o.set("shard.streams_per_query", "count", ratio(d(h1.ShardStreams, h0.ShardStreams), float64(l.n)), l.n, "shard.Snapshot delta / requests")
	o.set("shard.merged_items_per_query", "count", ratio(d(h1.MergedItems, h0.MergedItems), float64(l.n)), l.n, "shard.Snapshot delta / requests")
	o.setSpanLines(spans)

	set, err := shard.OpenSet(filepath.Join(dir, serveRepo+shard.ManifestExt))
	if err != nil {
		return err
	}
	var texts []string
	for t := range missTexts {
		texts = append(texts, t)
	}
	if err := o.setFrontEnd(set.Stores[0], texts, 5); err != nil {
		return err
	}
	return o.setSearch([][]byte{doc}, 3)
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
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
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
