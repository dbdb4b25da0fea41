package xquec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

const apiDoc = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name><age>25</age></person>
  </people>
  <closed_auctions>
    <closed_auction><buyer person="p1"/><price>19.99</price></closed_auction>
    <closed_auction><buyer person="p0"/><price>55.00</price></closed_auction>
  </closed_auctions>
</site>`

// drainXML renders the rest of a result, one item per line.
func drainXML(r *Results) (string, error) {
	var sb strings.Builder
	_, err := r.WriteXML(&sb)
	return sb.String(), err
}

func TestCompressAndQuery(t *testing.T) {
	db, err := Compress([]byte(apiDoc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(context.Background(), `FOR $p IN document("d")/site/people/person WHERE $p/age >= 28 RETURN $p/name/text()`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := drainXML(res)
	if err != nil {
		t.Fatal(err)
	}
	if out != "Alice" {
		t.Fatalf("result = %q", out)
	}
	if res.Len() != 1 {
		t.Fatalf("Len = %d", res.Len())
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	db, err := Compress([]byte(apiDoc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/db.xqc"
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := drainXML(db.MustQuery(`count(/site//person)`))
	b, _ := drainXML(db2.MustQuery(`count(/site//person)`))
	if a != b || a != "2" {
		t.Fatalf("round trip results %q vs %q", a, b)
	}
	db3, err := OpenBytes(db.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := drainXML(db3.MustQuery(`count(/site//person)`)); c != "2" {
		t.Fatalf("OpenBytes result %q", c)
	}
}

func TestWorkloadDrivenCompression(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 41})
	var w Workload
	w.IneqConst("/site/closed_auctions/closed_auction/annotation/description/text/#text")
	w.EqJoin("/site/people/person/@id", "/site/closed_auctions/closed_auction/buyer/@person")
	db, err := Compress(doc, Options{Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	// The joined containers should land in one source-model group so
	// the join can run as a compressed merge join.
	var g1, g2 string
	for _, c := range db.Containers() {
		switch c.Path {
		case "/site/people/person/@id":
			g1 = c.Group
		case "/site/closed_auctions/closed_auction/buyer/@person":
			g2 = c.Group
		}
	}
	if g1 == "" || g2 == "" {
		t.Fatal("containers missing")
	}
	if g1 != g2 {
		t.Logf("note: cost model kept join sides separate (%s vs %s)", g1, g2)
	}
	// Queries still work under the tuned plan.
	res, err := db.Execute(context.Background(), `count(/site/people/person)`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := drainXML(res); out == "0" {
		t.Fatal("no persons")
	}
}

func TestStatsAndContainers(t *testing.T) {
	db, err := Compress([]byte(apiDoc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.OriginalBytes != len(apiDoc) || st.CompressedBytes <= 0 || st.Nodes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !strings.Contains(st.String(), "containers=") {
		t.Fatalf("stats string = %s", st)
	}
	cs := db.Containers()
	if len(cs) == 0 {
		t.Fatal("no containers")
	}
	seenDecimal := false
	for _, c := range cs {
		if c.Kind == "decimal" {
			seenDecimal = true
		}
		if c.Algorithm == "" || c.Records <= 0 {
			t.Fatalf("container %+v", c)
		}
	}
	if !seenDecimal {
		t.Fatal("price container should be decimal-typed")
	}
}

func TestParseQuery(t *testing.T) {
	if err := ParseQuery(`for $x in /a return $x`); err != nil {
		t.Fatal(err)
	}
	if err := ParseQuery(`for $x in`); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestCompressErrors(t *testing.T) {
	if _, err := Compress([]byte("<a></b>"), Options{}); err == nil {
		t.Fatal("malformed XML accepted")
	}
	if _, err := Open(t.TempDir() + "/missing.xqc"); err == nil {
		t.Fatal("missing file opened")
	}
	if _, err := OpenBytes([]byte("junk")); err == nil {
		t.Fatal("junk opened")
	}
}

func TestExplicitPlan(t *testing.T) {
	plan := &CompressionPlan{DefaultAlgorithm: "huffman"}
	db, err := Compress([]byte(apiDoc), Options{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range db.Containers() {
		if c.Kind == "string" && c.Algorithm != "huffman" {
			t.Fatalf("container %s uses %s", c.Path, c.Algorithm)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 51})
	db, err := Compress(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`count(/site//item)`,
		`FOR $p IN /site/people/person WHERE $p/profile/age >= 40 RETURN $p/name/text()`,
		`FOR $p IN /site/people/person
		 LET $a := FOR $t IN /site/closed_auctions/closed_auction
		           WHERE $t/buyer/@person = $p/@id RETURN $t
		 RETURN count($a)`,
		`sum(/site/closed_auctions/closed_auction/price)`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		r, err := db.Execute(context.Background(), q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = drainXML(r)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				qi := (w + i) % len(queries)
				r, err := db.Execute(context.Background(), queries[qi], QueryOptions{})
				if err != nil {
					errs <- err
					return
				}
				out, err := drainXML(r)
				if err != nil {
					errs <- err
					return
				}
				if out != want[qi] {
					errs <- fmt.Errorf("query %d result changed under concurrency", qi)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestWorkloadQueriesEndToEnd(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.1, Seed: 61})
	var texts []string
	for _, q := range xmarkq.Queries() {
		texts = append(texts, q.Text)
	}
	db, err := Compress(doc, Options{WorkloadQueries: texts})
	if err != nil {
		t.Fatal(err)
	}
	// The Q8/Q9 IDREF join sides should share one source-model group so
	// the join runs as a compressed merge join.
	groupOf := map[string]string{}
	for _, c := range db.Containers() {
		groupOf[c.Path] = c.Group
	}
	a := groupOf["/site/people/person/@id"]
	b := groupOf["/site/closed_auctions/closed_auction/buyer/@person"]
	if a == "" || b == "" {
		t.Fatal("join containers missing")
	}
	if a != b {
		t.Logf("note: cost model kept join sides apart (%s vs %s)", a, b)
	}
	// Queries agree with a blind-compressed database.
	blind, err := Compress(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{xmarkq.Q1, xmarkq.Q5, xmarkq.Q8} {
		r1, err := db.Execute(context.Background(), q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := blind.Execute(context.Background(), q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s1, _ := drainXML(r1)
		s2, _ := drainXML(r2)
		if s1 != s2 {
			t.Fatalf("tuned and blind databases disagree on %.40q", q)
		}
	}
}
