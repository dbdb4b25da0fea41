package engine

import (
	"strings"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

const peopleDoc = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age><city>Rome</city></person>
    <person id="p1"><name>Bob</name><age>25</age><city>Paris</city></person>
    <person id="p2"><name>Carol</name><age>41</age><city>Rome</city></person>
  </people>
  <auctions>
    <auction id="a0"><buyer person="p1"/><price>10.50</price><note>old gold ring</note></auction>
    <auction id="a1"><buyer person="p0"/><price>55.00</price><note>silver spoon</note></auction>
    <auction id="a2"><buyer person="p0"/><price>31.25</price><note>gold coin set</note></auction>
  </auctions>
</site>`

// PeopleDoc exports peopleDoc to the external engine_test package.
const PeopleDoc = peopleDoc

func newEngine(t *testing.T, doc string) *Engine {
	t.Helper()
	s, err := storage.Load([]byte(doc), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return New(s)
}

func run(t *testing.T, e *Engine, q string) string {
	t.Helper()
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	out, err := res.SerializeXML()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSimplePaths(t *testing.T) {
	e := newEngine(t, peopleDoc)
	if got := run(t, e, `document("d")/site/people/person/name/text()`); got != "Alice\nBob\nCarol" {
		t.Fatalf("names = %q", got)
	}
	if got := run(t, e, `/site/people/person/@id`); !strings.Contains(got, `id="p1"`) {
		t.Fatalf("ids = %q", got)
	}
	if got := run(t, e, `count(/site//person)`); got != "3" {
		t.Fatalf("count = %q", got)
	}
	if got := run(t, e, `/site/*/auction/@id`); !strings.Contains(got, "a2") {
		t.Fatalf("wildcard = %q", got)
	}
}

func TestAttributePredicateFastPath(t *testing.T) {
	e := newEngine(t, peopleDoc)
	got := run(t, e, `FOR $b IN /site/people/person[@id = "p1"] RETURN $b/name/text()`)
	if got != "Bob" {
		t.Fatalf("got %q", got)
	}
	if got := run(t, e, `FOR $b IN /site/people/person[@id = "nope"] RETURN $b`); got != "" {
		t.Fatalf("ghost person: %q", got)
	}
}

func TestRangePredicateOnTypedContainer(t *testing.T) {
	e := newEngine(t, peopleDoc)
	got := run(t, e, `FOR $p IN /site/people/person WHERE $p/age >= 30 RETURN $p/name/text()`)
	if got != "Alice\nCarol" {
		t.Fatalf("ages >= 30: %q", got)
	}
	got = run(t, e, `count(FOR $a IN /site/auctions/auction WHERE $a/price >= 31 RETURN $a)`)
	if got != "2" {
		t.Fatalf("prices >= 31: %q", got)
	}
	// decimal literal against decimal container
	got = run(t, e, `count(FOR $a IN /site/auctions/auction WHERE $a/price = 10.5 RETURN $a)`)
	if got != "1" {
		t.Fatalf("price = 10.5: %q", got)
	}
}

func TestPositionalPredicates(t *testing.T) {
	e := newEngine(t, peopleDoc)
	got := run(t, e, `/site/people/person[1]/name/text()`)
	if got != "Alice" {
		t.Fatalf("[1] = %q", got)
	}
	got = run(t, e, `/site/people/person[last()]/name/text()`)
	if got != "Carol" {
		t.Fatalf("[last()] = %q", got)
	}
	got = run(t, e, `/site/people/person[7]/name/text()`)
	if got != "" {
		t.Fatalf("[7] = %q", got)
	}
}

func TestJoinThroughIndex(t *testing.T) {
	e := newEngine(t, peopleDoc)
	q := `FOR $p IN /site/people/person
	      LET $a := FOR $t IN /site/auctions/auction WHERE $t/buyer/@person = $p/@id RETURN $t
	      RETURN <bought name="{$p/name/text()}">{count($a)}</bought>`
	got := run(t, e, q)
	want := `<bought name="Alice">2</bought>
<bought name="Bob">1</bought>
<bought name="Carol">0</bought>`
	if got != want {
		t.Fatalf("join result:\n%s\nwant:\n%s", got, want)
	}
	// The join index must have been built (and only once).
	if len(e.joinIdx) != 1 {
		t.Fatalf("join index cache size = %d, want 1", len(e.joinIdx))
	}
}

func TestConstructorsAndSequences(t *testing.T) {
	e := newEngine(t, peopleDoc)
	got := run(t, e, `<wrap n="{count(/site/people/person)}"><inner/>text</wrap>`)
	if got != `<wrap n="3"><inner/>text</wrap>` {
		t.Fatalf("ctor = %q", got)
	}
	got = run(t, e, `("a", 1 + 1, "b")`)
	if got != "a\n2\nb" {
		t.Fatalf("seq = %q", got)
	}
}

func TestSubtreeSerialization(t *testing.T) {
	e := newEngine(t, peopleDoc)
	got := run(t, e, `FOR $p IN /site/people/person[@id = "p0"] RETURN $p`)
	want := `<person id="p0"><name>Alice</name><age>30</age><city>Rome</city></person>`
	if got != want {
		t.Fatalf("subtree = %q", got)
	}
}

func TestContainsAndFunctions(t *testing.T) {
	e := newEngine(t, peopleDoc)
	got := run(t, e, `FOR $a IN /site/auctions/auction WHERE contains($a/note, "gold") RETURN $a/@id`)
	if !strings.Contains(got, "a0") || !strings.Contains(got, "a2") || strings.Contains(got, "a1") {
		t.Fatalf("contains: %q", got)
	}
	if got := run(t, e, `sum(/site/auctions/auction/price)`); got != "96.75" {
		t.Fatalf("sum = %q", got)
	}
	if got := run(t, e, `avg(/site/people/person/age)`); got != "32" {
		t.Fatalf("avg = %q", got)
	}
	if got := run(t, e, `min(/site/people/person/age)`); got != "25" {
		t.Fatalf("min = %q", got)
	}
	if got := run(t, e, `string-join(distinct-values(/site/people/person/city/text()), "|")`); got != "Rome|Paris" {
		t.Fatalf("distinct = %q", got)
	}
	if got := run(t, e, `starts-with(/site/people/person[1]/name/text(), "Al")`); got != "true" {
		t.Fatalf("starts-with = %q", got)
	}
	if got := run(t, e, `if (count(/site/people/person) > 2) then "many" else "few"`); got != "many" {
		t.Fatalf("if = %q", got)
	}
}

func TestOrderBy(t *testing.T) {
	e := newEngine(t, peopleDoc)
	got := run(t, e, `FOR $p IN /site/people/person ORDER BY $p/age RETURN $p/name/text()`)
	if got != "Bob\nAlice\nCarol" {
		t.Fatalf("order by age = %q", got)
	}
	// Names sort Alice, Bob, Carol -> ages 30, 25, 41.
	got = run(t, e, `FOR $p IN /site/people/person ORDER BY $p/name RETURN $p/age/text()`)
	if got != "30\n25\n41" {
		t.Fatalf("order by name = %q", got)
	}
}

func TestErrors(t *testing.T) {
	e := newEngine(t, peopleDoc)
	for _, q := range []string{
		`$undefined`,
		`unknownfn(1)`,
		`sum(/site/people/person/name)`, // non-numeric aggregate
		`1 + /site/people/person`,       // arithmetic over sequence
	} {
		if _, err := e.Query(q); err == nil {
			t.Fatalf("no error for %q", q)
		}
	}
}

// TestDifferentialXMark is the semantic anchor: every benchmark query
// must produce byte-identical output on the compressed engine and on
// the uncompressed DOM reference evaluator.
func TestDifferentialXMark(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.08, Seed: 21})
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	compressed := New(s)
	reference := galaxlike.New(doc)
	for _, q := range xmarkq.Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			got, err := compressed.Query(q.Text)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			want, err := reference.Query(q.Text)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			gs, err := got.SerializeXML()
			if err != nil {
				t.Fatal(err)
			}
			ws, err := want.SerializeXML()
			if err != nil {
				t.Fatal(err)
			}
			if gs != ws {
				t.Fatalf("results differ\nengine (%d items):\n%.600s\nreference (%d items):\n%.600s",
					got.Len(), gs, want.Len(), ws)
			}
		})
	}
}

// TestDifferentialWithPlans re-runs the differential suite under
// different compression plans: the semantics must not depend on the
// chosen algorithms.
func TestDifferentialWithPlans(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.04, Seed: 22})
	reference := galaxlike.New(doc)
	plans := map[string]*storage.CompressionPlan{
		"huffman":  {DefaultAlgorithm: storage.AlgHuffman},
		"hutucker": {DefaultAlgorithm: storage.AlgHuTucker},
		"shared-refs": {
			Groups: map[string][]string{
				"refs": {
					"/site/people/person/@id",
					"/site/closed_auctions/closed_auction/buyer/@person",
					"/site/closed_auctions/closed_auction/seller/@person",
				},
			},
			Algorithms: map[string]string{"refs": storage.AlgALM},
		},
	}
	for name, plan := range plans {
		name, plan := name, plan
		t.Run(name, func(t *testing.T) {
			s, err := storage.Load(doc, storage.LoadOptions{Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			e := New(s)
			for _, q := range []string{xmarkq.Q1, xmarkq.Q5, xmarkq.Q8, xmarkq.Q14, xmarkq.Q16} {
				got, err := e.Query(q)
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				want, err := reference.Query(q)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				gs, _ := got.SerializeXML()
				ws, _ := want.SerializeXML()
				if gs != ws {
					t.Fatalf("plan %s: results differ for %.60q", name, q)
				}
			}
		})
	}
}

func TestQueryAfterReload(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.03, Seed: 23})
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob := s.AppendBinary(nil)
	s2, err := storage.LoadBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	a := run(t, New(s), xmarkq.Q1)
	b := run(t, New(s2), xmarkq.Q1)
	if a != b {
		t.Fatalf("reloaded store answers differently: %q vs %q", a, b)
	}
}

// TestDifferentialXMarkExtended covers the queries beyond the paper's
// Figure-7 chart.
func TestDifferentialXMarkExtended(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 24})
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	compressed := New(s)
	reference := galaxlike.New(doc)
	for _, q := range xmarkq.ExtendedQueries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			got, err := compressed.Query(q.Text)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			want, err := reference.Query(q.Text)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			gs, _ := got.SerializeXML()
			ws, _ := want.SerializeXML()
			if gs != ws {
				t.Fatalf("results differ\nengine (%d items):\n%.400s\nreference (%d items):\n%.400s",
					got.Len(), gs, want.Len(), ws)
			}
		})
	}
}

func TestOrderByDescending(t *testing.T) {
	e := newEngine(t, peopleDoc)
	got := run(t, e, `FOR $p IN /site/people/person ORDER BY $p/age DESCENDING RETURN $p/name/text()`)
	if got != "Carol\nAlice\nBob" {
		t.Fatalf("descending = %q", got)
	}
	got = run(t, e, `FOR $p IN /site/people/person ORDER BY $p/age ASCENDING RETURN $p/name/text()`)
	if got != "Bob\nAlice\nCarol" {
		t.Fatalf("ascending = %q", got)
	}
}

func TestForPreservesBoundSequenceOrder(t *testing.T) {
	e := newEngine(t, peopleDoc)
	// $a carries an ORDER BY arrangement; iterating it with FOR must not
	// silently restore document order.
	q := `LET $a := (FOR $p IN /site/people/person ORDER BY $p/age DESCENDING RETURN $p)
	      FOR $x IN $a
	      RETURN $x/name/text()`
	if got := run(t, e, q); got != "Carol\nAlice\nBob" {
		t.Fatalf("order lost through FOR over LET: %q", got)
	}
}

// TestFastPathSoundness pins the predicate fast path's bail-out cases:
// nested-element content, empty elements and empty-string literals must
// all match the reference semantics.
func TestFastPathSoundness(t *testing.T) {
	doc := `<root>
	  <rec><name><first>Alice</first></name><v>1</v></rec>
	  <rec><name>Bob</name><v>2</v></rec>
	  <rec><name/><v>3</v></rec>
	  <rec><name>Ali<b/>ce</name><v>4</v></rec>
	</root>`
	eng := newEngine(t, doc)
	ref := galaxlike.New([]byte(doc))
	queries := []string{
		`FOR $r IN /root/rec WHERE $r/name = "Alice" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name != "Bob" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name = "" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name < "B" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name >= "" RETURN $r/v/text()`,
		`/root/rec[name = "Alice"]/v/text()`,
		`/root/rec[name != "x"]/v/text()`,
	}
	for _, q := range queries {
		got, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatalf("%s: reference: %v", q, err)
		}
		gs, _ := got.SerializeXML()
		ws, _ := want.SerializeXML()
		if gs != ws {
			t.Errorf("%s\nengine:    %q\nreference: %q", q, gs, ws)
		}
	}
}

// TestFastPathOptionalValues covers containers where only some
// instances carry a value.
func TestFastPathOptionalValues(t *testing.T) {
	doc := `<root>
	  <p><phone>123</phone></p>
	  <p></p>
	  <p><phone>456</phone></p>
	</root>`
	eng := newEngine(t, doc)
	ref := galaxlike.New([]byte(doc))
	for _, q := range []string{
		`count(FOR $p IN /root/p WHERE $p/phone = 123 RETURN $p)`,
		`count(FOR $p IN /root/p WHERE $p/phone != 123 RETURN $p)`,
		`count(FOR $p IN /root/p WHERE $p/phone < 400 RETURN $p)`,
	} {
		got, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		gs, _ := got.SerializeXML()
		ws, _ := want.SerializeXML()
		if gs != ws {
			t.Errorf("%s: engine %q vs reference %q", q, gs, ws)
		}
	}
}
