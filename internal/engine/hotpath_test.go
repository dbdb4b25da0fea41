package engine

import (
	"testing"

	"xquec/internal/algebra"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

// TestChildrenWithinSmallParentAllocs pins the per-binding child step
// ($p/name for one bound person) to no allocation beyond its output
// slice on either backend.
func TestChildrenWithinSmallParentAllocs(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 3})
	for backend, kind := range map[string]storage.StructureKind{"records": storage.StructRecords, "succinct": storage.StructSuccinct} {
		s, err := storage.Load(doc, storage.LoadOptions{Structure: kind})
		if err != nil {
			t.Fatal(err)
		}
		person := s.Sum.Lookup("/site/people/person")
		name := s.Sum.Lookup("/site/people/person/name")
		if person == nil || name == nil || len(name.Extent) <= 8 {
			t.Fatalf("%s: XMark summary lacks enough person names", backend)
		}
		targets := []*storage.SummaryNode{name}
		// Not a child of person, and large enough for the small-parent path.
		none := []*storage.SummaryNode{s.Sum.Lookup("/site/open_auctions/open_auction")}
		for i, p := range person.Extent[:8] {
			parents := algebra.NodeSet{p}
			var got algebra.NodeSet
			allocs := testing.AllocsPerRun(20, func() { got = childrenWithin(s, parents, targets) })
			if len(got) != 1 || got[0] != name.Extent[i] || allocs > 1 {
				t.Fatalf("%s: childrenWithin(%d) = %v with %.0f allocs, want [%d] with at most 1",
					backend, p, got, allocs, name.Extent[i])
			}
			if allocs := testing.AllocsPerRun(20, func() { got = childrenWithin(s, parents, none) }); len(got) != 0 || allocs != 0 {
				t.Fatalf("%s: childrenWithin(%d, open_auction) = %v with %.0f allocs, want none", backend, p, got, allocs)
			}
		}
	}
}

// TestFLWORPlannedOncePerQuery checks that a nested FLWOR evaluated
// once per outer binding (Q8, Q9) is planned once per query, and that
// an Engine reused for another evaluation starts with empty memos.
func TestFLWORPlannedOncePerQuery(t *testing.T) {
	s, err := storage.Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 3}), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(s)
	for _, q := range []string{xmarkq.Q8, xmarkq.Q9} {
		expr, err := xquery.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		flwors := map[*xquery.FLWOR]bool{}
		xquery.Walk(expr, func(x xquery.Expr) {
			if f, ok := x.(*xquery.FLWOR); ok {
				flwors[f] = true
			}
		})
		if len(flwors) < 2 {
			t.Fatalf("%d FLWORs in %q, want a nested one", len(flwors), q)
		}
		res, err := e.Eval(expr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.SerializeXML(); err != nil {
			t.Fatal(err)
		}
		if len(e.plans) != len(flwors) {
			t.Fatalf("%d plans after one query with %d FLWORs", len(e.plans), len(flwors))
		}
		for f := range e.plans {
			if !flwors[f] {
				t.Fatal("plan memo holds a FLWOR of another query")
			}
		}
		if len(e.targets) == 0 {
			t.Fatal("no summary targets memoized")
		}
	}
	if _, err := e.Query(`1 + 1`); err != nil {
		t.Fatal(err)
	}
	if len(e.plans) != 0 || len(e.targets) != 0 || len(e.joinIdx) != 0 {
		t.Fatalf("memos not reset: %d plans, %d targets, %d join indexes", len(e.plans), len(e.targets), len(e.joinIdx))
	}
}
