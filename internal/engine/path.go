package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xpar"
	"xquec/internal/xquery"
)

// pathState is the intermediate state of path evaluation: the current
// node set (document order), the summary nodes those nodes belong to,
// and whether the set is exactly the union of the summary extents —
// when it is, the next structural step is answered purely from the
// structure summary (the StructureSummaryAccess strategy of §2.3),
// without touching the structure tree.
type pathState struct {
	nodes algebra.NodeSet
	sums  []*storage.SummaryNode
	exact bool
}

// evalPath evaluates a path expression to a sequence.
func (e *Engine) evalPath(p *xquery.PathExpr, env *scope) (Seq, error) {
	return e.evalPathPre(p, env, nil)
}

// evalPathPre is evalPath with optional per-step precomputed summary
// targets (see evalPathNodesPre).
func (e *Engine) evalPathPre(p *xquery.PathExpr, env *scope, pre [][]*storage.SummaryNode) (Seq, error) {
	st, textTail, err := e.evalPathNodesPre(p, env, pre)
	if err != nil {
		return nil, err
	}
	if textTail {
		texts, err := algebra.TextContent(e.store, st.nodes)
		if err != nil {
			return nil, err
		}
		out := make(Seq, len(texts))
		for i, t := range texts {
			out[i] = t
		}
		return out, nil
	}
	out := make(Seq, len(st.nodes))
	for i, id := range st.nodes {
		out[i] = id
	}
	return out, nil
}

// evalPathNodes evaluates the structural part of a path; if the final
// step is text(), textTail is true and the returned nodes are the text
// owners.
func (e *Engine) evalPathNodes(p *xquery.PathExpr, env *scope) (pathState, bool, error) {
	return e.evalPathNodesPre(p, env, nil)
}

// evalPathNodesPre is evalPathNodes with optional precomputed per-step
// summary targets: pre[i], when non-nil, replaces the summaryTargets
// call for step i (the bytecode compiler resolves step targets against
// the structure summary once at compile time instead of per tuple).
// Every other decision — exactness, predicate evaluation, structural
// moves — is taken by the same code as the plain path, so results are
// identical by construction.
func (e *Engine) evalPathNodesPre(p *xquery.PathExpr, env *scope, pre [][]*storage.SummaryNode) (pathState, bool, error) {
	st, err := e.pathOrigin(p, env)
	if err != nil {
		return pathState{}, false, err
	}
	steps := p.Steps
	for i, step := range steps {
		if step.Test == xquery.TestText {
			if i != len(steps)-1 {
				return pathState{}, false, fmt.Errorf("engine: text() must be the final step")
			}
			if len(step.Preds) > 0 {
				return pathState{}, false, fmt.Errorf("engine: predicates on text() are not supported")
			}
			// Restrict to nodes that actually have immediate text.
			var withText algebra.NodeSet
			for _, id := range st.nodes {
				if e.store.HasText(id) {
					withText = append(withText, id)
				}
			}
			st.nodes = withText
			return st, true, nil
		}
		var tg []*storage.SummaryNode
		if pre != nil && i < len(pre) {
			tg = pre[i]
		}
		st, err = e.applyStep(st, i == 0 && p.Var == "" /* fromDocument */, step, env, tg)
		if err != nil {
			return pathState{}, false, err
		}
	}
	return st, false, nil
}

// pathOrigin resolves the origin of a path.
func (e *Engine) pathOrigin(p *xquery.PathExpr, env *scope) (pathState, error) {
	if p.Var == "" { // absolute: the (single) document
		return pathState{nodes: nil, sums: nil, exact: true}, nil
	}
	var seq Seq
	var sums []*storage.SummaryNode
	if p.Var == "." {
		seq = Seq{env.ctx}
		sums = env.ctxSums
	} else {
		s, ok := env.vars[p.Var]
		if !ok {
			return pathState{}, fmt.Errorf("engine: unbound variable $%s", p.Var)
		}
		seq = s
		sums = env.varSums[p.Var]
	}
	ids, ok := nodeSeq(seq)
	if !ok {
		return pathState{}, errNonNodePath
	}
	if len(sums) == 0 && len(ids) > 0 && len(p.Steps) > 0 {
		// The variable was bound from a non-path source (e.g. a nested
		// FLWOR): recover the summary nodes by walking each node's tag
		// path upward.
		sums = e.summariesOf(ids)
	}
	return pathState{nodes: ids, sums: sums, exact: false}, nil
}

// summariesOf returns the distinct summary nodes the given nodes are
// instances of.
func (e *Engine) summariesOf(ids algebra.NodeSet) []*storage.SummaryNode {
	seen := map[int32]bool{}
	var out []*storage.SummaryNode
	for _, id := range ids {
		sn := e.summaryOf(id)
		if sn != nil && !seen[sn.ID] {
			seen[sn.ID] = true
			out = append(out, sn)
		}
	}
	return out
}

// summaryOf resolves one node's summary node by its tag path.
func (e *Engine) summaryOf(id storage.NodeID) *storage.SummaryNode {
	var tags []string
	for cur := id; cur != 0; cur = e.store.Parent(cur) {
		tags = append(tags, e.store.TagOf(cur))
	}
	sn := e.store.Sum.Root
	if sn == nil || sn.Tag != tags[len(tags)-1] {
		return nil
	}
	for i := len(tags) - 2; i >= 0; i-- {
		var next *storage.SummaryNode
		for _, c := range sn.Children {
			if c.Tag == tags[i] {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		sn = next
	}
	return sn
}

var errNonNodePath = fmt.Errorf("engine: path step over non-node sequence")

// targetKey names one step resolved from one origin: a summary node
// ID, or -1 for the virtual document node of absolute paths.
type targetKey struct {
	origin int32
	axis   xquery.Axis
	test   xquery.NodeTest
	name   string
}

// summaryTargets returns the distinct summary children of sums
// matching the step (child axis), or all matching descendants for the
// descendant axis. fromDocument handles the virtual document node for
// absolute paths. Steps from the document or from a single origin (a
// FOR-bound variable, re-resolved for every binding) are answered from
// the engine's memo; callers treat the returned slice as read-only.
func (e *Engine) summaryTargets(sums []*storage.SummaryNode, fromDocument bool, step xquery.Step) []*storage.SummaryNode {
	k := targetKey{origin: -1, axis: step.Axis, test: step.Test, name: step.Name}
	if !fromDocument {
		if len(sums) != 1 {
			return e.resolveTargets(sums, false, step)
		}
		k.origin = sums[0].ID
	}
	out, ok := e.targets[k]
	if !ok {
		out = e.resolveTargets(sums, fromDocument, step)
		e.targets[k] = out
	}
	return out
}

// resolveTargets is summaryTargets without the memo.
func (e *Engine) resolveTargets(sums []*storage.SummaryNode, fromDocument bool, step xquery.Step) []*storage.SummaryNode {
	name := step.Name
	if step.Test == xquery.TestAttr {
		name = "@" + step.Name
	}
	deep := step.Axis != xquery.AxisChild
	var out []*storage.SummaryNode
	if fromDocument {
		root := e.store.Sum.Root
		if stepMatches(root, step.Test, name) {
			out = append(out, root)
		}
		if deep {
			out = appendTargets(out, root, step.Test, name, true)
		}
		return out
	}
	for _, sn := range sums {
		out = appendTargets(out, sn, step.Test, name, deep)
	}
	if len(sums) > 1 {
		// Overlapping origins reach a descendant more than once: keep
		// its first occurrence.
		seen := make(map[int32]bool, len(out))
		uniq := out[:0]
		for _, sn := range out {
			if !seen[sn.ID] {
				seen[sn.ID] = true
				uniq = append(uniq, sn)
			}
		}
		out = uniq
	}
	return out
}

// appendTargets appends the children of sn (all descendants, in
// pre-order, when deep) that match the node test.
func appendTargets(out []*storage.SummaryNode, sn *storage.SummaryNode, test xquery.NodeTest, name string, deep bool) []*storage.SummaryNode {
	for _, c := range sn.Children {
		if stepMatches(c, test, name) {
			out = append(out, c)
		}
		if deep {
			out = appendTargets(out, c, test, name, true)
		}
	}
	return out
}

func stepMatches(sn *storage.SummaryNode, test xquery.NodeTest, name string) bool {
	if test == xquery.TestName && name == "*" {
		return !strings.HasPrefix(sn.Tag, "@") && sn.Tag != "#text"
	}
	return sn.Tag == name
}

// applyStep applies one structural step (element or attribute test).
// pre, when non-nil, is the step's precomputed summary-target set (same
// value summaryTargets would return — the compiler resolves it once).
func (e *Engine) applyStep(st pathState, fromDocument bool, step xquery.Step, env *scope, pre []*storage.SummaryNode) (pathState, error) {
	targets := pre
	if targets == nil {
		targets = e.summaryTargets(st.sums, fromDocument, step)
	}
	next := pathState{sums: targets}
	if len(targets) == 0 {
		return next, nil
	}
	positional := false
	for _, pred := range step.Preds {
		if isPositionalPred(pred) {
			positional = true
		}
	}
	if positional {
		// Positional predicates need per-parent child grouping: evaluate
		// navigationally from the (materialized) parent set.
		parents := st.nodes
		if st.exact {
			parents = algebra.SummaryAccess(st.sums)
			if fromDocument {
				parents = algebra.NodeSet{}
				if step.Axis == xquery.AxisChild {
					parents = nil // handled below: document has one child, the root
				}
			}
		}
		if fromDocument {
			parents = algebra.NodeSet{1}
			// position among the root itself
			sel, err := e.filterPositional(algebra.NodeSet{1}, step, env)
			if err != nil {
				return next, err
			}
			next.nodes = sel
			next.exact = false
			return next, nil
		}
		var out []storage.NodeID
		for _, parent := range parents {
			kids := e.childList(parent, step, targets)
			sel, err := e.applyPreds(kids, step.Preds, env, targets)
			if err != nil {
				return next, err
			}
			out = append(out, sel...)
		}
		next.nodes = algebra.SortUnique(out)
		next.exact = false
		return next, nil
	}

	// Structural move.
	if st.exact || fromDocument {
		next.nodes = algebra.SummaryAccess(targets)
		next.exact = true
	} else {
		if step.Axis == xquery.AxisChild {
			next.nodes = childrenWithin(e.store, st.nodes, targets)
		} else {
			next.nodes = algebra.DescendantsPar(e.store, st.nodes, algebra.SummaryAccess(targets), e.par)
		}
		next.exact = false
	}
	// Non-positional predicates.
	if len(step.Preds) > 0 {
		sel, err := e.applyPreds(next.nodes, step.Preds, env, targets)
		if err != nil {
			return next, err
		}
		next.nodes = sel
		next.exact = false
	}
	return next, nil
}

// childrenWithin keeps the targets' extent nodes whose parent is in
// parents. For small parent sets it scans the parents' kid lists and
// never materializes the extent union (a FOR-bound variable has one
// node; touching thousands of extent entries per binding would make
// predicates quadratic).
func childrenWithin(s *storage.Store, parents algebra.NodeSet, targets []*storage.SummaryNode) algebra.NodeSet {
	if len(parents) == 0 || len(targets) == 0 {
		return nil
	}
	extentSize := 0
	for _, sn := range targets {
		extentSize += len(sn.Extent)
	}
	if extentSize == 0 {
		return nil
	}
	if len(parents)*8 < extentSize {
		// Targets are a handful of summary nodes: a linear scan of their
		// tag codes in a stack slice beats building a set per call.
		var buf [8]uint16
		codes := buf[:0]
		for _, sn := range targets {
			if code, ok := s.Code(sn.Tag); ok {
				codes = append(codes, code)
			}
		}
		var out []storage.NodeID
		for _, p := range parents {
			for k := range s.Kids(p) {
				if k.ID != 0 && slices.Contains(codes, s.TagCodeOf(k.ID)) {
					out = append(out, k.ID)
				}
			}
		}
		return algebra.SortUnique(out)
	}
	extent := algebra.SummaryAccess(targets)
	inParents := make(map[storage.NodeID]bool, len(parents))
	for _, p := range parents {
		inParents[p] = true
	}
	// One bulk pass resolves every extent node's parent (the extent is
	// document-ordered, which is what the kernel rides).
	pars := make([]storage.NodeID, len(extent))
	s.ParentBulk(extent, pars)
	var out algebra.NodeSet
	for i, c := range extent {
		if inParents[pars[i]] {
			out = append(out, c)
		}
	}
	return out
}

// childList returns the parent's children matching the step, in
// document order.
func (e *Engine) childList(parent storage.NodeID, step xquery.Step, targets []*storage.SummaryNode) algebra.NodeSet {
	if step.Axis == xquery.AxisDescendantOrSelf {
		extent := algebra.SummaryAccess(targets)
		return algebra.Descendants(e.store, algebra.NodeSet{parent}, extent)
	}
	name := step.Name
	if step.Test == xquery.TestAttr {
		name = "@" + step.Name
	}
	var out algebra.NodeSet
	for k := range e.store.Kids(parent) {
		if k.ID == 0 {
			continue
		}
		tag := e.store.TagOf(k.ID)
		if name == "*" {
			if !strings.HasPrefix(tag, "@") {
				out = append(out, k.ID)
			}
		} else if tag == name {
			out = append(out, k.ID)
		}
	}
	return out
}

// isPositionalPred reports whether the predicate selects by position.
func isPositionalPred(pred xquery.Expr) bool {
	switch p := pred.(type) {
	case *xquery.NumberLit:
		return true
	case *xquery.Call:
		return p.Name == "last"
	}
	return false
}

// applyPreds filters candidate nodes by the step predicates, in order.
func (e *Engine) applyPreds(nodes algebra.NodeSet, preds []xquery.Expr, env *scope, sums []*storage.SummaryNode) (algebra.NodeSet, error) {
	cur := nodes
	// AND-predicates are split so each conjunct can use the container
	// fast path independently.
	var flat []xquery.Expr
	for _, pred := range preds {
		if isPositionalPred(pred) {
			flat = append(flat, pred)
			continue
		}
		flat = append(flat, splitPredConjuncts(pred)...)
	}
	preds = flat
	// The owner sets of the conjunct fast paths depend only on the
	// containers (never on cur), so independent conjuncts can be
	// evaluated concurrently and consumed in predicate order.
	pre := e.precomputeConjunctOwners(preds, sums)
	for i, pred := range preds {
		switch p := pred.(type) {
		case *xquery.NumberLit:
			idx := int(p.Val)
			if idx < 1 || idx > len(cur) {
				cur = nil
			} else {
				cur = algebra.NodeSet{cur[idx-1]}
			}
			continue
		case *xquery.Call:
			if p.Name == "last" {
				if len(cur) == 0 {
					continue
				}
				cur = algebra.NodeSet{cur[len(cur)-1]}
				continue
			}
		}
		// Value predicate: container fast path, else per-node. A
		// precomputed conjunct replays its (owners, ok, err) in predicate
		// order, so error and fallback selection match the serial loop.
		var pc *conjunctOwners
		if pre != nil {
			pc = pre[i]
		}
		if pc != nil {
			if pc.err != nil {
				return nil, pc.err
			}
			if pc.ok {
				cur = algebra.SemiJoinAncestorPar(e.store, cur, pc.owners, e.par)
				continue
			}
		} else if sel, ok, err := e.predFastPath(cur, sums, pred, env); err != nil {
			return nil, err
		} else if ok {
			cur = sel
			continue
		}
		var out algebra.NodeSet
		for _, id := range cur {
			sub := env.withCtx(id, sums)
			v, err := e.eval(pred, sub)
			if err != nil {
				return nil, err
			}
			b, err := e.effectiveBool(v)
			if err != nil {
				return nil, err
			}
			if b {
				out = append(out, id)
			}
		}
		cur = out
	}
	return cur, nil
}

// conjunctOwners is one precomputed fast-path result: the matched owner
// set, whether the fast path applies, and any container error.
type conjunctOwners struct {
	owners algebra.NodeSet
	ok     bool
	err    error
}

// precomputeConjunctOwners fans the container fast paths of independent
// `relPath op literal` conjuncts out across the worker pool. It returns
// a sparse slice aligned with preds (nil = not eligible, evaluate as
// before), or nil when nothing fans out. Only container scans run on
// the workers; every result is replayed in predicate order by the
// caller, so evaluation order, error selection and fallback decisions
// are serial-identical.
func (e *Engine) precomputeConjunctOwners(preds []xquery.Expr, sums []*storage.SummaryNode) []*conjunctOwners {
	if e.par <= 1 || len(sums) == 0 || len(preds) < 2 {
		return nil
	}
	// Containers are resolved here, on the calling goroutine, because
	// summary resolution writes the engine's memo; the workers only scan.
	type job struct {
		idx                int
		conts              []*storage.Container
		complete, resolved bool
		op, lit            string
	}
	var jobs []job
	for i, pred := range preds {
		cmp, isCmp := pred.(*xquery.Cmp)
		if !isCmp {
			continue
		}
		if rel, lit, op, ok := splitCmp(cmp); ok {
			j := job{idx: i, op: op, lit: lit}
			j.conts, j.complete, j.resolved = e.relValueTarget(sums, rel)
			jobs = append(jobs, j)
		}
	}
	if len(jobs) < 2 {
		return nil
	}
	out := make([]*conjunctOwners, len(preds))
	inner := e.par / len(jobs)
	if inner < 1 {
		inner = 1
	}
	workers := e.par
	if workers > len(jobs) {
		workers = len(jobs)
	}
	xpar.NoteScan(len(jobs))
	_ = xpar.ForEach(workers, len(jobs), func(k int) error {
		j := jobs[k]
		pc := &conjunctOwners{}
		if j.resolved {
			pc.owners, pc.ok, pc.err = e.matchOwnersConts(j.conts, j.complete, j.op, j.lit, inner)
		}
		out[j.idx] = pc
		return nil
	})
	return out
}

// splitPredConjuncts flattens an AND tree inside a step predicate.
func splitPredConjuncts(pred xquery.Expr) []xquery.Expr {
	if l, isLogic := pred.(*xquery.Logic); isLogic && l.Op == "and" {
		return append(splitPredConjuncts(l.Left), splitPredConjuncts(l.Right)...)
	}
	return []xquery.Expr{pred}
}

// filterPositional applies only positional predicates to a node list.
func (e *Engine) filterPositional(nodes algebra.NodeSet, step xquery.Step, env *scope) (algebra.NodeSet, error) {
	return e.applyPreds(nodes, step.Preds, env, nil)
}

// ---------------------------------------------------------------------
// Compressed-domain predicate fast path
// ---------------------------------------------------------------------

// relValueTarget resolves a context-relative path (inside a predicate or
// a WHERE clause) to the value containers it denotes under the given
// summary nodes. ok is false when the shape is unsupported (the caller
// then evaluates row-at-a-time). complete reports that every instance of
// the path has a value in the containers — when false, only existential
// equality against a non-empty literal is sound on the containers alone.
func (e *Engine) relValueTarget(sums []*storage.SummaryNode, p *xquery.PathExpr) (conts []*storage.Container, complete bool, ok bool) {
	if p.Var == "" {
		return nil, false, false // absolute paths are not context-relative
	}
	cur := sums
	for _, step := range p.Steps {
		if len(step.Preds) > 0 {
			return nil, false, false
		}
		if step.Test == xquery.TestText {
			break
		}
		cur = e.summaryTargets(cur, false, step)
		if len(cur) == 0 {
			return nil, true, true // statically empty: no container, no match
		}
	}
	// Terminal: the value container(s). For attribute ends, the summary
	// node itself holds the container; for element ends, its #text
	// child — valid only when the element's string value IS its
	// immediate text, i.e. it has no element children (mixed or nested
	// content would need deep-text comparison).
	complete = true
	seen := map[int32]bool{}
	for _, sn := range cur {
		target := sn
		if !strings.HasPrefix(sn.Tag, "@") {
			var txt *storage.SummaryNode
			for _, c := range sn.Children {
				if c.Tag == "#text" {
					txt = c
					continue
				}
				if !strings.HasPrefix(c.Tag, "@") {
					return nil, false, false // element content: deep value
				}
			}
			if txt == nil {
				// No instance has a text value: their string values are
				// all "", which the containers cannot answer.
				return nil, false, false
			}
			// #text summary nodes carry no structural extent (values live
			// in the containers), so instance coverage is measured by the
			// container's record count: one record per instance with text.
			txtCount := txt.Count
			if txt.Container >= 0 {
				if c := e.store.Container(txt.Container); c != nil {
					txtCount = c.Len()
				}
			}
			if txtCount < sn.Count {
				complete = false // some instances have no text value
			}
			target = txt
		}
		if target.Container < 0 || seen[target.ID] {
			continue
		}
		seen[target.ID] = true
		conts = append(conts, e.store.Container(target.Container))
	}
	return conts, complete, true
}

// predFastPath evaluates predicates of the form  relPath op literal
// (either side) against the containers, in the compressed domain when
// the codec supports the comparison. It returns ok=false when the
// predicate does not have that shape.
func (e *Engine) predFastPath(nodes algebra.NodeSet, sums []*storage.SummaryNode, pred xquery.Expr, env *scope) (algebra.NodeSet, bool, error) {
	cmp, okShape := pred.(*xquery.Cmp)
	if !okShape || len(sums) == 0 {
		return nil, false, nil
	}
	rel, lit, op, ok := splitCmp(cmp)
	if !ok {
		return nil, false, nil
	}
	owners, ok, err := e.matchOwners(sums, rel, op, lit, e.par)
	if err != nil || !ok {
		return nil, ok, err
	}
	return algebra.SemiJoinAncestorPar(e.store, nodes, owners, e.par), true, nil
}

// splitCmp normalizes a comparison into (relative path, literal,
// effective operator). Comparisons with the literal on the left flip
// the operator.
func splitCmp(cmp *xquery.Cmp) (*xquery.PathExpr, string, string, bool) {
	lit := func(e xquery.Expr) (string, bool) {
		switch v := e.(type) {
		case *xquery.StringLit:
			return v.Val, true
		case *xquery.NumberLit:
			return formatNum(v.Val), true
		}
		return "", false
	}
	if p, isPath := cmp.Left.(*xquery.PathExpr); isPath && p.Var == "." {
		if l, isLit := lit(cmp.Right); isLit {
			return p, l, cmp.Op, true
		}
	}
	if p, isPath := cmp.Right.(*xquery.PathExpr); isPath && p.Var == "." {
		if l, isLit := lit(cmp.Left); isLit {
			return p, l, flipOp(cmp.Op), true
		}
	}
	return nil, "", "", false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and != are symmetric
}

// matchOwners returns the owner nodes (value parents) matching
// `relPath op literal` under the given summary nodes, spending up to
// par workers: one summary path can map to many containers, so the
// per-container matches fan out across the pool, each container scan
// splitting its leftover worker share internally.
func (e *Engine) matchOwners(sums []*storage.SummaryNode, rel *xquery.PathExpr, op, literal string, par int) (algebra.NodeSet, bool, error) {
	conts, complete, ok := e.relValueTarget(sums, rel)
	if !ok {
		return nil, false, nil
	}
	return e.matchOwnersConts(conts, complete, op, literal, par)
}

// matchOwnersConts is the scan half of matchOwners, taking an already
// resolved container set (the bytecode compiler resolves relValueTarget
// statically and calls in here per execution).
func (e *Engine) matchOwnersConts(conts []*storage.Container, complete bool, op, literal string, par int) (algebra.NodeSet, bool, error) {
	// An instance without a text value still atomizes to the string ""
	// (an empty element's string value), which matches != and <-style
	// comparisons — but has no container record. When such instances
	// exist (complete == false), only equality against a non-empty
	// literal is sound on the containers alone.
	if !complete && !(op == "=" && literal != "") {
		return nil, false, nil
	}
	if op == "=" && literal == "" {
		// "" never appears in the containers (empty text nodes are not
		// recorded); fall back to per-node evaluation.
		return nil, false, nil
	}
	if par > 1 && len(conts) > 1 {
		results := make([]conjunctOwners, len(conts))
		inner := par / len(conts)
		if inner < 1 {
			inner = 1
		}
		workers := par
		if workers > len(conts) {
			workers = len(conts)
		}
		xpar.NoteScan(len(conts))
		// Workers never return an error: the reduction below walks the
		// results in container order, so the error and not-handled
		// decisions are the ones the serial loop would have made.
		_ = xpar.ForEach(workers, len(conts), func(i int) error {
			results[i].owners, results[i].ok, results[i].err = e.containerMatch(conts[i], op, literal, inner)
			return nil
		})
		all := make([]algebra.NodeSet, 0, len(conts))
		for _, r := range results {
			if r.err != nil {
				return nil, false, r.err
			}
			if !r.ok {
				return nil, false, nil
			}
			all = append(all, r.owners)
		}
		return algebra.MergeUnion(all...), true, nil
	}
	var all []algebra.NodeSet
	for _, c := range conts {
		owners, ok, err := e.containerMatch(c, op, literal, par)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		all = append(all, owners)
	}
	return algebra.MergeUnion(all...), true, nil
}

// containerMatch evaluates `value op literal` over one container,
// preferring the compressed domain; the decoding-scan fallbacks split
// the record range across up to par workers.
func (e *Engine) containerMatch(c *storage.Container, op, literal string, par int) (algebra.NodeSet, bool, error) {
	_, litIsNum := parseNum(literal)
	// String containers compared against numeric literals follow
	// numeric semantics per value ("40.0" = 40): fall back to a
	// decoding scan.
	if c.Kind == storage.KindString && litIsNum {
		owners, err := algebra.ContFilterPar(c, par, func(plain []byte) bool {
			return compareAtoms(op, string(plain), literal)
		})
		return owners, err == nil, err
	}
	probe, exact := canonicalProbe(c, literal)
	if !exact {
		// The literal is not representable in the container's value
		// space exactly (e.g. "40" against a scale-2 decimal container
		// would be, but "abc" against an int container is not):
		// fall back to the decoding scan with general semantics.
		owners, err := algebra.ContFilterPar(c, par, func(plain []byte) bool {
			return compareAtoms(op, string(plain), literal)
		})
		return owners, err == nil, err
	}
	switch op {
	case "=":
		owners, err := algebra.ContEqPar(c, probe, par)
		return owners, err == nil, err
	case "!=":
		owners, err := algebra.ContFilterPar(c, par, func(plain []byte) bool {
			return compareAtoms("!=", string(plain), literal)
		})
		return owners, err == nil, err
	case "<":
		owners, err := algebra.ContRange(c, nil, true, probe, false)
		return owners, err == nil, err
	case "<=":
		owners, err := algebra.ContRange(c, nil, true, probe, true)
		return owners, err == nil, err
	case ">":
		owners, err := algebra.ContRange(c, probe, false, nil, true)
		return owners, err == nil, err
	case ">=":
		owners, err := algebra.ContRange(c, probe, true, nil, true)
		return owners, err == nil, err
	}
	return nil, false, nil
}

func parseNum(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return f, err == nil
}

// canonicalProbe reformats a literal into the container's canonical
// value text, so the typed codecs can encode it; exact=false means the
// literal cannot be made canonical and the caller must scan.
func canonicalProbe(c *storage.Container, literal string) ([]byte, bool) {
	switch c.Kind {
	case storage.KindString:
		return []byte(literal), true
	case storage.KindInt:
		f, ok := parseNum(literal)
		if !ok || f != float64(int64(f)) {
			return nil, false
		}
		return []byte(strconv.FormatInt(int64(f), 10)), true
	case storage.KindDecimal:
		f, ok := parseNum(literal)
		if !ok {
			return nil, false
		}
		// Infer the scale from an existing record: decode one value.
		if c.Len() == 0 {
			return nil, false
		}
		sc := storage.NewScratch()
		defer sc.Release()
		v, err := c.DecodeScratch(sc, 0)
		if err != nil {
			return nil, false
		}
		dot := bytes.IndexByte(v, '.')
		if dot < 0 {
			return nil, false
		}
		scale := len(v) - dot - 1
		s := strconv.FormatFloat(f, 'f', scale, 64)
		if got, _ := parseNum(s); got != f {
			return nil, false // literal has more precision than the scale
		}
		return []byte(s), true
	case storage.KindFloat:
		f, ok := parseNum(literal)
		if !ok {
			return nil, false
		}
		return []byte(strconv.FormatFloat(f, 'f', -1, 64)), true
	case storage.KindDate:
		if len(literal) == 10 && literal[4] == '-' && literal[7] == '-' {
			return []byte(literal), true
		}
		return nil, false
	}
	return nil, false
}
