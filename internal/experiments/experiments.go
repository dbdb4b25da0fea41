// Package experiments regenerates every table and figure of the
// paper's evaluation section (§5) plus the numeric claims made in the
// text, using the synthetic corpus substitutes documented in DESIGN.md.
// Each experiment returns printable rows so the same code backs both
// `go test -bench` and cmd/benchrun.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/baselines/xgrind"
	"xquec/internal/baselines/xmill"
	"xquec/internal/baselines/xpress"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/vm"
	"xquec/internal/xmarkq"
	"xquec/internal/xmlparser"
	"xquec/internal/xquery"
)

// Row is one line of an experiment's output.
type Row struct {
	Name   string
	Values map[string]float64
	Note   string
}

func (r Row) String() string {
	s := r.Name + ":"
	for _, k := range sortedKeys(r.Values) {
		s += fmt.Sprintf(" %s=%.4g", k, r.Values[k])
	}
	if r.Note != "" {
		s += "  (" + r.Note + ")"
	}
	return s
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Seed fixes all generated corpora.
const Seed = 2004

// Table1 reproduces the data-set characteristics table: size, element
// and attribute counts, depth and value share per corpus.
func Table1(xmarkScale float64) ([]Row, error) {
	docs := []datagen.Dataset{}
	docs = append(docs, datagen.RealLifeCorpus(Seed)...)
	docs = append(docs, datagen.Dataset{
		Name: fmt.Sprintf("XMark%d", int(xmarkScale)),
		Data: datagen.XMark(datagen.XMarkConfig{Scale: xmarkScale, Seed: Seed}),
	})
	var rows []Row
	for _, d := range docs {
		st, err := xmlparser.CollectStats(d.Data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		rows = append(rows, Row{
			Name: d.Name,
			Values: map[string]float64{
				"size_mb":    float64(st.Bytes) / 1e6,
				"elements":   float64(st.Elements),
				"attributes": float64(st.Attributes),
				"max_depth":  float64(st.MaxDepth),
				"paths":      float64(st.DistinctPaths),
				"value_pct":  100 * st.ValueShare(),
			},
		})
	}
	return rows, nil
}

// CompressAll measures the compression factor of the four systems on
// one document.
func CompressAll(doc []byte) (Row, error) {
	var r Row
	r.Values = map[string]float64{}
	if a, err := xmill.Compress(doc); err != nil {
		return r, err
	} else {
		r.Values["xmill"] = a.CompressionFactor()
	}
	if g, err := xgrind.Compress(doc); err != nil {
		return r, err
	} else {
		r.Values["xgrind"] = g.CompressionFactor()
	}
	if p, err := xpress.Compress(doc); err != nil {
		return r, err
	} else {
		r.Values["xpress"] = p.CompressionFactor()
	}
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		return r, err
	}
	r.Values["xquec"] = s.CompressionFactor()
	return r, nil
}

// Figure6Left reproduces the real-life-corpus compression factors and
// their average.
func Figure6Left() ([]Row, error) {
	var rows []Row
	avg := map[string]float64{}
	sets := datagen.RealLifeCorpus(Seed)
	for _, d := range sets {
		r, err := CompressAll(d.Data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		r.Name = d.Name
		rows = append(rows, r)
		for k, v := range r.Values {
			avg[k] += v / float64(len(sets))
		}
	}
	rows = append(rows, Row{Name: "average", Values: avg})
	return rows, nil
}

// Figure6Right reproduces the XMark scale sweep.
func Figure6Right(scales []float64) ([]Row, error) {
	var rows []Row
	for _, sc := range scales {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: sc, Seed: Seed})
		r, err := CompressAll(doc)
		if err != nil {
			return nil, err
		}
		r.Name = fmt.Sprintf("xmark_%gmb", float64(len(doc))/1e6)
		rows = append(rows, r)
	}
	return rows, nil
}

// Figure7 runs the benchmark queries on the compressed engine and the
// Galax-like baseline, reporting wall-clock times. XQueC's time is the
// shipping query path — parse, compile to the stack VM, run and
// serialize (see runQuery) — so it includes decompressing the query
// result (as in the paper); the baseline's includes its full document
// parse.
func Figure7(scale float64, repeat int) ([]Row, error) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: Seed})
	store, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		return nil, err
	}
	if repeat < 1 {
		repeat = 1
	}
	var rows []Row
	for _, q := range xmarkq.Queries() {
		// XQueC: fresh run per repetition (no join-index reuse across runs).
		var xqDur time.Duration
		var xqItems int
		for i := 0; i < repeat; i++ {
			start := time.Now()
			n, err := runQuery(store, q.Text)
			if err != nil {
				return nil, fmt.Errorf("xquec %s: %w", q.ID, err)
			}
			xqDur += time.Since(start)
			xqItems = n
		}
		xq := xqDur.Seconds() / float64(repeat)
		// Q9's three-way join is quadratic-to-cubic under the baseline's
		// naive nested loops; beyond small documents it does not finish
		// in reasonable time — exactly the paper's observation ("in
		// Galax Q9 could not be measured on our machine").
		if q.ID == "q9" && scale > 1.5 {
			rows = append(rows, Row{
				Name:   q.ID,
				Values: map[string]float64{"xquec_s": xq},
				Note:   fmt.Sprintf("%d items; baseline not measurable at this scale (cf. paper §5)", xqItems),
			})
			continue
		}
		glRepeat := repeat
		if q.ID == "q8" || q.ID == "q9" {
			glRepeat = 1 // the join queries are minutes-long under the baseline
		}
		var glDur time.Duration
		var glItems int
		for i := 0; i < glRepeat; i++ {
			g := galaxlike.New(doc) // parses the document per query
			start := time.Now()
			res, err := g.Query(q.Text)
			if err != nil {
				return nil, fmt.Errorf("galaxlike %s: %w", q.ID, err)
			}
			if _, err := res.SerializeXML(); err != nil {
				return nil, err
			}
			glDur += time.Since(start)
			glItems = res.Len()
		}
		gl := glDur.Seconds() / float64(glRepeat)
		rows = append(rows, Row{
			Name: q.ID,
			Values: map[string]float64{
				"xquec_s": xq,
				"galax_s": gl,
				"speedup": gl / xq,
			},
			Note: fmt.Sprintf("%d items (baseline %d)", xqItems, glItems),
		})
	}
	return rows, nil
}

// Section22 reproduces the storage-footprint claims of §2.2: the
// overall CF including access structures, the summary share of the
// original document, and the access-structure overhead factor.
func Section22(scales []float64) ([]Row, error) {
	var rows []Row
	for _, sc := range scales {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: sc, Seed: Seed})
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			return nil, err
		}
		f := s.Footprint()
		rows = append(rows, Row{
			Name: fmt.Sprintf("xmark_%gmb", float64(len(doc))/1e6),
			Values: map[string]float64{
				"cf":              s.CompressionFactor(),
				"summary_pct":     100 * float64(f.Summary) / float64(len(doc)),
				"overhead_factor": f.AccessOverheadFactor(),
			},
		})
	}
	return rows, nil
}

// ValueShare reproduces the §1 claim that values make up 70–80% of
// documents.
func ValueShare() ([]Row, error) {
	var rows []Row
	docs := append(datagen.RealLifeCorpus(Seed), datagen.Dataset{
		Name: "XMark5",
		Data: datagen.XMark(datagen.XMarkConfig{Scale: 5, Seed: Seed}),
	})
	for _, d := range docs {
		st, err := xmlparser.CollectStats(d.Data)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Name:   d.Name,
			Values: map[string]float64{"value_pct": 100 * st.ValueShare()},
		})
	}
	return rows, nil
}

// Figure4Q14 contrasts the access patterns on XMark Q14 (§2.3): the
// homomorphic systems scan their entire compressed stream, XQueC
// touches only the summary and the involved containers.
func Figure4Q14(scale float64) ([]Row, error) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: Seed})

	// XGrind: full-stream scan even for a point query.
	xg, err := xgrind.Compress(doc)
	if err != nil {
		return nil, err
	}
	startG := time.Now()
	_, visitedG, err := xg.ExactMatch("//item/description/text/#text", "gold", true)
	if err != nil {
		return nil, err
	}
	gDur := time.Since(startG)

	// XPRESS: full-stream scan with interval tests.
	xp, err := xpress.Compress(doc)
	if err != nil {
		return nil, err
	}
	startP := time.Now()
	_, visitedP, err := xp.ScanCount("//item")
	if err != nil {
		return nil, err
	}
	pDur := time.Since(startP)

	// XQueC: summary lookup + the description and name containers only.
	store, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		return nil, err
	}
	startQ := time.Now()
	items, err := runQuery(store, xmarkq.Q14)
	if err != nil {
		return nil, err
	}
	qDur := time.Since(startQ)
	touched := 0
	for _, c := range store.Containers {
		// Q14 touches the item description containers (scan+decode for
		// contains) and the item name containers (output).
		touched += c.CompressedBytes()
	}
	// Upper bound on XQueC's data touch: all containers would still be
	// less than the homomorphic full streams; report the involved
	// containers precisely instead.
	involved := 0
	for _, c := range store.Containers {
		p := c.Path
		if containsPath(p, "/item/description/") || containsPath(p, "/item/name/") {
			involved += c.CompressedBytes()
		}
	}
	return []Row{
		{Name: "xgrind", Values: map[string]float64{"bytes_visited": float64(visitedG), "seconds": gDur.Seconds()}},
		{Name: "xpress", Values: map[string]float64{"bytes_visited": float64(visitedP), "seconds": pDur.Seconds()}},
		{Name: "xquec", Values: map[string]float64{"bytes_visited": float64(involved), "seconds": qDur.Seconds()},
			Note: fmt.Sprintf("%d result items; all containers together hold %d bytes", items, touched)},
	}, nil
}

// runQuery evaluates q on store the way Database.Execute does —
// parse, compile to the stack VM, run — and streams the serialized
// result to io.Discard, returning the item count. It runs serially,
// like the baselines. (This package cannot import the root package,
// whose tests import it.)
func runQuery(store *storage.Store, q string) (int, error) {
	expr, err := xquery.Parse(q)
	if err != nil {
		return 0, err
	}
	prog, err := vm.Compile(expr, store, q)
	if err != nil {
		return 0, err
	}
	res, err := prog.Run(vm.RunOptions{Parallelism: 1})
	if err != nil {
		return 0, err
	}
	defer res.Close()
	if _, err := res.WriteXML(io.Discard); err != nil {
		return 0, err
	}
	return res.Len(), nil
}

func containsPath(p, sub string) bool { return strings.Contains(p, sub) }
