package engine_test

import (
	"context"
	"io"
	"strings"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/vm"
	"xquec/internal/xquery"
)

// The streaming cursor is the compiled program's result (vm.Program.Run);
// these tests pin its contract over the engine's store, in an external
// test package because vm imports engine.

// streamQueries covers every top-level shape the cursor streams or
// materializes: paths (with and without a text() tail), FLWOR (plain,
// nested, WHERE, ORDER BY), sequences, and the eager shapes (aggregates,
// constructors).
var streamQueries = []string{
	`document("d")/site/people/person/name/text()`,
	`/site/people/person/@id`,
	`/site//person/city/text()`,
	`FOR $p IN /site/people/person WHERE $p/age >= 28 RETURN $p/name/text()`,
	`FOR $p IN /site/people/person ORDER BY $p/age DESCENDING RETURN $p/name/text()`,
	`FOR $a IN /site/auctions/auction
	 LET $b := $a/buyer/@person
	 RETURN <sale who="x">{$a/price/text()}</sale>`,
	`(1, 2, /site/people/person/name/text(), "tail")`,
	`count(/site//person)`,
	`sum(/site/auctions/auction/price)`,
	`<wrap>{/site/people/person/name}</wrap>`,
}

func streamStore(t *testing.T) *storage.Store {
	t.Helper()
	s, err := storage.Load([]byte(engine.PeopleDoc), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func streamRun(t *testing.T, s *storage.Store, q string, opts vm.RunOptions) *engine.Result {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	prog, err := vm.Compile(expr, s, q)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	res, err := prog.Run(opts)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return res
}

// TestStreamMatchesEager is the equivalence anchor: draining the
// streaming cursor must be byte-identical to the eager evaluator's
// materialized result for every shape, and both must equal galaxlike
// over the uncompressed document.
func TestStreamMatchesEager(t *testing.T) {
	s := streamStore(t)
	e := engine.New(s)
	ref := galaxlike.New([]byte(engine.PeopleDoc))
	ref.ParsePerQuery = false
	for _, q := range streamQueries {
		eager, err := e.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", q, err)
		}
		want, err := eager.SerializeXML()
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := ref.Query(q)
		if err != nil {
			t.Fatalf("galaxlike(%s): %v", q, err)
		}
		if got, err := oracle.SerializeXML(); err != nil || got != want {
			t.Fatalf("galaxlike(%s) = %q, %v; eager = %q", q, got, err, want)
		}
		res := streamRun(t, s, q, vm.RunOptions{})
		var sb strings.Builder
		_, err = res.WriteXML(&sb)
		res.Close()
		if err != nil {
			t.Fatalf("WriteXML(%s): %v", q, err)
		}
		if sb.String() != want {
			t.Fatalf("stream(%s) = %q, eager = %q", q, sb.String(), want)
		}
	}
}

// TestStreamEarlyClose stops consuming after one item; the run must
// unwind cleanly (no leak or fault under -race, no error) and the
// cursor must stay closed.
func TestStreamEarlyClose(t *testing.T) {
	res := streamRun(t, streamStore(t), `FOR $p IN /site/people/person RETURN $p/name/text()`, vm.RunOptions{})
	if _, ok, err := res.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := res.Next(); ok || err != nil {
		t.Fatalf("Next after Close: ok=%v err=%v", ok, err)
	}
}

// TestStreamContextCancel: cancelling the run's context between pulls
// ends the stream with the context's error.
func TestStreamContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := streamRun(t, streamStore(t), `/site/people/person/name/text()`, vm.RunOptions{Ctx: ctx})
	defer res.Close()
	if _, ok, err := res.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	cancel()
	if _, ok, err := res.Next(); ok || err != context.Canceled {
		t.Fatalf("Next after cancel: ok=%v err=%v", ok, err)
	}
}

// TestStreamWriteXML: WriteXML drains the cursor, reports the bytes it
// wrote, and writes nothing once drained.
func TestStreamWriteXML(t *testing.T) {
	const q = `/site/people/person/name/text()`
	const want = "Alice\nBob\nCarol"
	res := streamRun(t, streamStore(t), q, vm.RunOptions{})
	defer res.Close()
	var sb strings.Builder
	n, err := res.WriteXML(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != want || n != len(want) {
		t.Fatalf("WriteXML = %q (%d bytes), want %q", sb.String(), n, len(want))
	}
	if n, err := res.WriteXML(io.Discard); n != 0 || err != nil {
		t.Fatalf("second WriteXML = %d, %v", n, err)
	}
}
