package shard

import (
	"strings"

	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Decision is the scatter analyzer's verdict on one query.
type Decision struct {
	// Scatter is true when per-member evaluation + ordered merge is
	// provably equivalent to evaluating on the whole corpus.
	Scatter bool
	// Reason explains a false Scatter (for EXPLAIN output and metrics).
	Reason string
}

// Analyze decides whether a query can be scattered across the set's
// members. The proof obligation: every result item must be computable
// from a single partitioned subtree, and the item stream of each member
// must be a rank-contiguous subsequence of the global result. One proof
// serves both kinds of set; it reads only the partition level and
// whether spine attributes are replicated (shard sets). For a segment
// set the spine is the corpus root, the level is 2 and the rank is the
// segment index.
//
// Sufficient conditions, checked structurally:
//
//  1. The query's root is a FLWOR whose first clause is a FOR over the
//     query's only absolute path, or the query is that path itself —
//     so every binding (and everything derived from it via relative
//     paths) is anchored below one subtree root. Exactly one absolute
//     path may appear in the whole query: a second one reaches across
//     subtree boundaries (multi-document joins, Q8/Q9).
//  2. No top-level ORDER BY (it reorders across members; nested FLWORs
//     inside RETURN order within one binding and are fine).
//  3. The binding path, resolved against every member's structure
//     summary, only reaches nodes strictly inside partitioned subtrees:
//     elements at the partition level or deeper — never spine nodes
//     (present in every member). Partition-level attributes belong to
//     spine elements: they are rejected when the spine's attributes are
//     replicated (shards), and safe when only one member holds them
//     (segments: appended roots are attribute-free, so the base segment
//     alone yields them, exactly as the whole corpus does).
//  4. Step predicates on the binding path run against spine content
//     only when that content is replicated identically: predicates at
//     depths above the partition level are rejected outright, and at
//     exactly the partition level positional predicates are rejected
//     (position among siblings is per-member, not global).
//
// Everything else — aggregates over the binding, nested FLWORs,
// constructors, WHERE joins between clause variables — is per-binding
// work and needs no analysis. Queries failing these checks fall back
// to the fused store, trading speed for unconditional correctness.
func Analyze(expr xquery.Expr, set *Set) Decision {
	level, member := set.Man.PartitionLevel, set.Man.Kind

	var binding *xquery.PathExpr
	switch x := expr.(type) {
	case *xquery.FLWOR:
		if x.OrderBy != nil {
			return Decision{Reason: "top-level ORDER BY reorders across " + member + "s"}
		}
		if len(x.Clauses) == 0 || x.Clauses[0].Let {
			return Decision{Reason: "first clause is not a FOR"}
		}
		p, isPath := x.Clauses[0].Seq.(*xquery.PathExpr)
		if !isPath || p.Var != "" {
			return Decision{Reason: "first FOR is not over an absolute path"}
		}
		binding = p
	case *xquery.PathExpr:
		if x.Var != "" {
			return Decision{Reason: "top-level path is not absolute"}
		}
		binding = x
	default:
		return Decision{Reason: "top-level expression is not a FLWOR or path"}
	}

	if n := countAbsolutePaths(expr); n != 1 {
		return Decision{Reason: "query reads the document from more than one root path"}
	}

	// Steps up to (excluding) a trailing text() are the structural part
	// whose matches decide the binding depth.
	steps := binding.Steps
	if len(steps) > 0 && steps[len(steps)-1].Test == xquery.TestText {
		steps = steps[:len(steps)-1]
	}
	if len(steps) == 0 {
		return Decision{Reason: "binding path selects the document root (spine)"}
	}

	// Predicate placement (condition 4). Step i has depth exactly i+1
	// when no earlier step uses //; with a // prefix its depth is at
	// least i+1, so i+1 > level is still a sound lower bound.
	descSeen := false
	for i, st := range steps {
		if st.Axis == xquery.AxisDescendantOrSelf {
			descSeen = true
		}
		if len(st.Preds) == 0 {
			continue
		}
		minDepth := i + 1
		switch {
		case minDepth > level:
			// strictly inside a subtree at every possible match
		case minDepth == level && !descSeen:
			for _, pred := range st.Preds {
				if isPositionalish(pred) {
					return Decision{Reason: "positional predicate at the partition level counts per " + member}
				}
			}
		default:
			return Decision{Reason: "predicate on a spine step (the root step or another step above the partition level) evaluates differently per " + member}
		}
	}

	// Binding depth (condition 3): resolve the path against every
	// member's summary — member summaries cover disjoint subtree sets,
	// so the union is the corpus's full summary.
	pattern := make([]storage.PathStep, len(steps))
	for i, st := range steps {
		name := st.Name
		if st.Test == xquery.TestAttr {
			name = "@" + st.Name
		}
		pattern[i] = storage.PathStep{Name: name, Descendant: st.Axis == xquery.AxisDescendantOrSelf}
	}
	for _, st := range set.Stores {
		for _, sn := range st.Sum.Match(pattern) {
			depth := summaryDepth(sn)
			if depth < level {
				return Decision{Reason: "binding path reaches spine nodes (the root and any element above the partition level, present in every " + member + ")"}
			}
			if depth == level && member == KindShard && strings.HasPrefix(sn.Tag, "@") {
				return Decision{Reason: "binding path reaches partition-level attributes (spine-owned)"}
			}
		}
	}
	return Decision{Scatter: true}
}

func summaryDepth(sn *storage.SummaryNode) int {
	d := 0
	for ; sn != nil; sn = sn.Parent {
		d++
	}
	return d
}

// countAbsolutePaths walks the AST counting document-rooted paths.
func countAbsolutePaths(expr xquery.Expr) int {
	n := 0
	xquery.Walk(expr, func(e xquery.Expr) {
		if p, isPath := e.(*xquery.PathExpr); isPath && p.Var == "" {
			n++
		}
	})
	return n
}

// isPositionalish over-approximates the engine's positional-predicate
// test: numeric literal predicates and any predicate mentioning
// position() or last() select by per-extent position.
func isPositionalish(pred xquery.Expr) bool {
	if _, isNum := pred.(*xquery.NumberLit); isNum {
		return true
	}
	positional := false
	xquery.Walk(pred, func(e xquery.Expr) {
		if c, isCall := e.(*xquery.Call); isCall && (c.Name == "last" || c.Name == "position") {
			positional = true
		}
	})
	return positional
}
