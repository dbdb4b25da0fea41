package vm

import (
	"fmt"
	"strings"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

var (
	testDoc   []byte
	testStore *storage.Store
	testRef   *galaxlike.Engine
)

func store(t testing.TB) *storage.Store {
	t.Helper()
	if testStore == nil {
		testDoc = datagen.XMark(datagen.XMarkConfig{Scale: 0.04, Seed: 7})
		s, err := storage.Load(testDoc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		testStore = s
		testRef = galaxlike.New(testDoc)
		testRef.ParsePerQuery = false
	}
	return testStore
}

// evalRef runs the oracle: galaxlike, the DOM evaluator over the
// uncompressed test document, which shares no substrate with the VM.
func evalRef(t testing.TB, q string) (string, error) {
	t.Helper()
	store(t)
	res, err := testRef.Query(q)
	if err != nil {
		return "", err
	}
	return res.SerializeXML()
}

// evalVM compiles and runs the program, serializing the result the way
// galaxlike does (one item per line).
func evalVM(t testing.TB, s *storage.Store, q string, par int) (string, error) {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	prog, err := Compile(expr, s, q)
	if err != nil {
		return "", err
	}
	return runXML(prog, RunOptions{Parallelism: par})
}

func runXML(prog *Program, opts RunOptions) (string, error) {
	res, err := prog.Run(opts)
	if err != nil {
		return "", err
	}
	defer res.Close()
	var sb strings.Builder
	_, err = res.WriteXML(&sb)
	return sb.String(), err
}

// checkOracle compares one VM evaluation against the galaxlike answer:
// byte-identical output, or an error from both (error texts differ
// between the two evaluators, so only the failure itself is compared).
func checkOracle(t testing.TB, label, want string, wantErr error, got string, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: galaxlike err=%v, vm err=%v", label, wantErr, gotErr)
	}
	if got != want {
		t.Fatalf("%s: output mismatch\n--- galaxlike ---\n%.400s\n--- vm ---\n%.400s", label, want, got)
	}
}

// queryBattery is the unit-level differential corpus: XMark plus
// targeted shapes for each compiled construct (restrict reordering,
// deferred slots, invariant domains, LET propagation, residual WHERE,
// fallback blocks, text tails, sequences of blocks).
func queryBattery() []xmarkq.Query {
	qs := append([]xmarkq.Query{}, xmarkq.Queries()...)
	qs = append(qs, xmarkq.ExtendedQueries()...)
	extra := []xmarkq.Query{
		{ID: "top-path", Text: `/site/regions/africa/item/name`},
		{ID: "top-path-text", Text: `/site/regions/africa/item/name/text()`},
		{ID: "top-path-desc", Text: `/site//item/name/text()`},
		{ID: "top-path-pred", Text: `/site/people/person[@id = "person0"]/name/text()`},
		{ID: "seq-blocks", Text: `(count(/site/people/person), /site/regions/africa/item/name/text(), 1 + 2)`},
		{ID: "fold-arith", Text: `FOR $i IN /site/open_auctions/open_auction WHERE $i/initial > 2 * 10 RETURN $i/initial/text()`},
		{ID: "fold-div", Text: `FOR $i IN /site/open_auctions/open_auction WHERE $i/initial > 100 div 5 RETURN $i/initial/text()`},
		{ID: "two-lits", Text: `FOR $p IN /site/people/person/profile WHERE $p/@income >= 30000 AND $p/age >= 30 RETURN $p/age/text()`},
		{ID: "lit-and-residual", Text: `FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 AND contains($p/name, "a") RETURN $p/name/text()`},
		{ID: "let-prop", Text: `LET $ps := /site/people/person FOR $p IN $ps WHERE $p/profile/@income >= 40000 RETURN $p/name/text()`},
		{ID: "nested-for", Text: `FOR $a IN /site/closed_auctions/closed_auction FOR $p IN /site/people/person WHERE $p/@id = $a/buyer/@person RETURN $p/name/text()`},
		{ID: "text-domain", Text: `FOR $t IN /site/regions/africa/item/name/text() RETURN $t`},
		{ID: "where-no-for", Text: `LET $n := count(/site/people/person) WHERE $n > 0 RETURN $n`},
		{ID: "orderby", Text: `FOR $p IN /site/people/person ORDER BY $p/name RETURN $p/name/text()`},
		{ID: "orderby-desc", Text: `FOR $p IN /site/people/person ORDER BY $p/name DESCENDING RETURN $p/name/text()`},
		{ID: "ctor-return", Text: `FOR $i IN /site/regions/asia/item RETURN <it name="{$i/name/text()}"/>`},
		{ID: "empty-domain", Text: `FOR $x IN /site/nonexistent/thing RETURN $x`},
		{ID: "if-return", Text: `FOR $p IN /site/people/person RETURN if ($p/profile/@income >= 50000) then $p/name/text() else "modest"`},
		{ID: "var-return", Text: `FOR $i IN /site/regions/africa/item/name RETURN $i`},
		{ID: "agg-block", Text: `sum(/site/open_auctions/open_auction/initial)`},
		{ID: "top-attr", Text: `/site/people/person/@id`},
		{ID: "seq-mixed", Text: `(1, 2, /site/people/person/name/text(), "tail")`},
		{ID: "ctor-top", Text: `<wrap>{/site/regions/africa/item/name}</wrap>`},
		{ID: "let-ctor-attr", Text: `FOR $a IN /site/closed_auctions/closed_auction LET $b := $a/buyer/@person RETURN <sale who="x">{$a/price/text()}</sale>`},
		{ID: "invariant-inner", Text: `FOR $p IN /site/people/person FOR $e IN /site/regions/europe/item WHERE $p/@id = "person1" RETURN $e/name/text()`},
	}
	return append(qs, extra...)
}

// TestDifferentialBattery: VM output must be byte-identical to
// galaxlike — and fail exactly when galaxlike fails — for every
// battery query at parallelism 1 and 4.
func TestDifferentialBattery(t *testing.T) {
	s := store(t)
	for _, q := range queryBattery() {
		want, wantErr := evalRef(t, q.Text)
		for _, par := range []int{1, 4} {
			got, gotErr := evalVM(t, s, q.Text, par)
			checkOracle(t, fmt.Sprintf("%s par=%d", q.ID, par), want, wantErr, got, gotErr)
		}
	}
}

// TestBindHookParity: the bind hook observes the clause-0 FOR binding
// nodes that survive clause-0 filtering (or, for a top-level path, the
// owner of each emitted node), in document order, each before the
// items derived from it. The expectation is the binding query's node
// set, evaluated eagerly by engine.Eval.
func TestBindHookParity(t *testing.T) {
	s := store(t)
	cases := []struct{ query, bindings string }{
		{`FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 RETURN $p/name/text()`,
			`FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 RETURN $p`},
		{`/site/regions/africa/item/name/text()`, `/site/regions/africa/item/name`},
		{`FOR $a IN /site/closed_auctions/closed_auction FOR $p IN /site/people/person WHERE $p/@id = $a/buyer/@person RETURN $p/name/text()`,
			`/site/closed_auctions/closed_auction`},
	}
	for _, c := range cases {
		res, err := engine.New(s).Query(c.bindings)
		if err != nil {
			t.Fatal(err)
		}
		var want []storage.NodeID
		for {
			it, ok, err := res.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			want = append(want, it.(storage.NodeID))
		}
		if len(want) == 0 {
			t.Fatalf("%s: empty binding set", c.bindings)
		}

		expr, err := xquery.Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(expr, s, c.query)
		if err != nil {
			t.Fatal(err)
		}
		var got []storage.NodeID
		vres, err := prog.Run(RunOptions{BindHook: func(id storage.NodeID) { got = append(got, id) }})
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := vres.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(got) == 0 {
				t.Fatalf("%s: item emitted before any binding was hooked", c.query)
			}
		}
		vres.Close()

		if len(got) != len(want) {
			t.Fatalf("%s: hooked %d bindings, want %d", c.query, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: hook[%d] = %d, want %d", c.query, i, got[i], want[i])
			}
		}
	}
}

// TestEarlyStop: closing the result mid-stream must not leak or fault,
// and resuming a fresh run must still produce full output.
func TestEarlyStop(t *testing.T) {
	s := store(t)
	q := `FOR $p IN /site/people/person RETURN $p/name/text()`
	expr, _ := xquery.Parse(q)
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := res.Next(); err != nil || !ok {
		t.Fatalf("first item: ok=%v err=%v", ok, err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := res.Next(); ok || err != nil {
		t.Fatalf("Next after Close: ok=%v err=%v", ok, err)
	}

	full, err := evalVM(t, s, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full == "" {
		t.Fatal("no output after restart")
	}
}

// compileQuery parses and compiles q against s.
func compileQuery(t *testing.T, s *storage.Store, q string) *Program {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunNextAndLen: Len before any Next materializes the rest of the
// run without losing items, and Next then hands out all of them.
func TestRunNextAndLen(t *testing.T) {
	s := store(t)
	const q = `/site/regions/africa/item/name/text()`
	want, err := evalRef(t, q)
	if err != nil {
		t.Fatal(err)
	}
	n := strings.Count(want, "\n") + 1
	res, err := compileQuery(t, s, q).Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Len() != n {
		t.Fatalf("Len = %d, want %d", res.Len(), n)
	}
	var names []string
	for {
		it, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		names = append(names, it.(string))
	}
	if got := strings.Join(names, "\n"); got != want {
		t.Fatalf("items = %q, want %q", got, want)
	}
	if res.Len() != n {
		t.Fatalf("Len after drain = %d", res.Len())
	}
}

// TestRunEvalError: an evaluation error ends the run on the pull that
// hits it and is sticky on every later pull.
func TestRunEvalError(t *testing.T) {
	res, err := compileQuery(t, store(t), `$undefined`).Run(RunOptions{})
	if err != nil {
		t.Fatal(err) // construction succeeds; the error surfaces on pull
	}
	defer res.Close()
	if _, ok, err := res.Next(); ok || err == nil {
		t.Fatalf("Next = ok=%v err=%v, want error", ok, err)
	}
	if _, _, err := res.Next(); err == nil {
		t.Fatal("error not sticky")
	}
}

// TestDisassemble sanity-checks the renderer on a representative plan.
func TestDisassemble(t *testing.T) {
	s := store(t)
	q := `FOR $i IN /site/closed_auctions/closed_auction WHERE $i/price >= 40 RETURN $i/price/text()`
	expr, _ := xquery.Parse(q)
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	dis := prog.Disassemble()
	for _, want := range []string{"SCAN", "LITREST", "ITER", "EMITSEQ", "HALT", "price"} {
		if !strings.Contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
	if prog.Len() == 0 || prog.SizeBytes() == 0 {
		t.Fatal("empty program metrics")
	}
}

// TestConstantFolding: folded programs still match galaxlike, and
// folding actually rewrites the arithmetic.
func TestConstantFolding(t *testing.T) {
	s := store(t)
	for _, q := range []string{
		`1 + 2 * 3`,
		`10 div 4 - 0.5`,
		`FOR $i IN /site/open_auctions/open_auction WHERE $i/initial > 2 * 10 RETURN $i/initial/text()`,
		`FOR $i IN /site/open_auctions/open_auction WHERE $i/initial > 100 div 5 RETURN $i/initial/text()`,
		`5 mod 0`,
	} {
		want, wantErr := evalRef(t, q)
		got, gotErr := evalVM(t, s, q, 1)
		checkOracle(t, q, want, wantErr, got, gotErr)
	}

	expr, err := xquery.Parse(`1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	folded := foldExpr(expr)
	n, ok := folded.(*xquery.NumberLit)
	if !ok || n.Val != 7 {
		t.Fatalf("fold(1+2*3) = %v, want NumberLit 7", folded)
	}
	// mod must NOT fold (its zero-divisor fault is an eval-time event).
	expr2, _ := xquery.Parse(`5 mod 2`)
	if _, isLit := foldExpr(expr2).(*xquery.NumberLit); isLit {
		t.Fatal("mod folded")
	}
	// Folding never mutates the input AST.
	expr3, _ := xquery.Parse(`FOR $i IN /a WHERE $i/b > 1 + 1 RETURN $i`)
	before := expr3.String()
	foldExpr(expr3)
	if expr3.String() != before {
		t.Fatal("foldExpr mutated its input")
	}
}
