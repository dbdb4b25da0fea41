package vm

import (
	"fmt"
	"sort"
	"strings"

	"xquec/internal/costmodel"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Compile lowers a parsed query into a Program bound to store. The
// compiler resolves per-step summary targets and predicate value
// containers against the repository's structure summary, folds constant
// arithmetic, and orders each clause's literal pushdowns
// cheapest-container-first using the cost model's measured decode
// costs. Shapes it does not specialize (ORDER BY, constructors, nested
// FLWOR domains) lower to fallback instructions that call into the
// engine's expression evaluator, so compilation always succeeds on
// parseable input;
// the error return guards against compiler bugs (it converts panics),
// keeping the fuzz contract checkable.
func Compile(expr xquery.Expr, store *storage.Store, src string) (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			prog, err = nil, fmt.Errorf("vm: compile: internal error: %v", r)
		}
	}()
	c := &compiler{
		p:      &Program{src: src, store: store},
		eng:    engine.New(store),
		varIdx: map[string]int32{},
	}
	c.top(expr)
	c.emit(Instr{Op: OpHalt})
	c.p.ncur = int(c.ncur)
	c.p.sizeEst = c.estimateSize()
	return c.p, nil
}

type compiler struct {
	p      *Program
	eng    *engine.Engine // compile-time summary/container resolution only
	varIdx map[string]int32
	ncur   int32
}

func (c *compiler) emit(in Instr) int {
	c.p.instrs = append(c.p.instrs, in)
	return len(c.p.instrs) - 1
}

func (c *compiler) newCursor() int32 {
	c.ncur++
	return c.ncur - 1
}

func (c *compiler) addVar(name string) int32 {
	if i, ok := c.varIdx[name]; ok {
		return i
	}
	i := int32(len(c.p.vars))
	c.p.vars = append(c.p.vars, name)
	c.varIdx[name] = i
	return i
}

func (c *compiler) addExpr(x xquery.Expr) int32 {
	c.p.exprs = append(c.p.exprs, x)
	return int32(len(c.p.exprs) - 1)
}

func (c *compiler) addDom(spec domainSpec) int32 {
	c.p.doms = append(c.p.doms, spec)
	return int32(len(c.p.doms) - 1)
}

// top compiles one top-level block per sequence item. Each block gets a
// fresh environment (OpReset): XQuery never mutates the top-level
// scope, so sibling blocks must not see each other's variables.
func (c *compiler) top(x xquery.Expr) {
	if seq, ok := x.(*xquery.Sequence); ok {
		for _, it := range seq.Items {
			c.top(it)
		}
		return
	}
	c.emit(Instr{Op: OpReset})
	switch e := x.(type) {
	case *xquery.FLWOR:
		if e.OrderBy != nil {
			// ORDER BY buffers every tuple anyway; eager fallback emits
			// the identical sorted stream.
			c.fallback(x)
			return
		}
		c.flwor(e)
	case *xquery.PathExpr:
		c.topPath(e)
	default:
		c.fallback(x)
	}
}

// fallback lowers a block to one tree-evaluator call plus streaming
// emission of its result sequence.
func (c *compiler) fallback(x xquery.Expr) {
	ei := c.addExpr(foldExpr(x))
	c.emit(Instr{Op: OpEvalPush, A: ei})
	i := c.emit(Instr{Op: OpEmitSeq})
	c.p.instrs[i].C = int32(i + 1)
}

// topPath compiles a top-level path into a streaming cursor: scan the
// extent once, then emit node by node (decoding text per item for
// text() tails) with no intermediate sequence.
func (c *compiler) topPath(p *xquery.PathExpr) {
	spec := c.domainFor(p, nil, nil)
	spec.topPath = true
	di := c.addDom(spec)
	cu := c.newCursor()
	c.emit(Instr{Op: OpScan, A: cu, B: di})
	i := c.emit(Instr{Op: OpIterEmit, A: cu})
	c.p.instrs[i].C = int32(i + 1)
}

// flwor compiles a FLWOR (no ORDER BY) into nested cursor loops.
func (c *compiler) flwor(x *xquery.FLWOR) {
	plan := c.eng.PlanFLWOR(x)
	varSums := map[string][]*storage.SummaryNode{}
	known := map[string]bool{}
	var endPatch []int     // instructions whose C is the block end
	innermost := int32(-1) // pc of the innermost OpIter so far

	for ci, cl := range x.Clauses {
		if cl.Let {
			spec := c.domainFor(cl.Seq, varSums, known)
			vi := c.addVar(cl.Var)
			di := c.addDom(spec)
			c.emit(Instr{Op: OpLet, A: vi, B: di})
			c.note(cl.Var, spec, varSums, known)
			continue
		}
		pds := plan.Pushdowns[ci]
		spec := c.domainFor(cl.Seq, varSums, known)

		// Build the clause's predicate specs. Literal pushdowns whose
		// clause summary is statically known resolve their containers
		// now; the rest resolve (or defer) at runtime. Slots remember
		// each pushdown's original plan position so deferred filters
		// evaluate in WHERE order no matter how restricts are
		// reordered.
		var lits, joins []int32
		for slot, pd := range pds {
			ps := predSpec{pd: pd, slot: int32(slot)}
			if pd.IsLit && spec.static {
				ps.resolved = true
				ps.conts, ps.complete, ps.fastOK = c.eng.RelValueTarget(spec.sums, pd.Rel)
				for _, ct := range ps.conts {
					ps.cost += float64(ct.Len()) * decodeCost(ct.Codec().Name())
				}
			}
			ps.desc = predDesc(&ps)
			pi := int32(len(c.p.preds))
			c.p.preds = append(c.p.preds, ps)
			spec.preds = append(spec.preds, pi)
			if pd.IsLit {
				lits = append(lits, pi)
			} else {
				joins = append(joins, pi)
			}
		}
		// Cheapest container first. Handled restricts are commuting
		// intersections of the clause domain, so reordering is sound;
		// unresolved ones keep their relative order at the end.
		sort.SliceStable(lits, func(a, b int) bool {
			return restrictCost(&c.p.preds[lits[a]]) < restrictCost(&c.p.preds[lits[b]])
		})

		di := c.addDom(spec)
		cu := c.newCursor()
		c.emit(Instr{Op: OpScan, A: cu, B: di})
		for _, pi := range lits {
			c.emit(Instr{Op: OpLitRestrict, A: cu, B: pi})
		}
		for _, pi := range joins {
			c.emit(Instr{Op: OpJoinRestrict, A: cu, B: pi})
		}
		vi := c.addVar(cl.Var)
		iter := c.emit(Instr{Op: OpIter, A: cu, B: vi})
		if innermost >= 0 {
			c.p.instrs[iter].C = innermost
		} else {
			endPatch = append(endPatch, iter)
		}
		if len(pds) > 0 {
			c.emit(Instr{Op: OpDeferred, A: cu, C: int32(iter)})
		}
		if ci == 0 {
			// The bind hook observes clause-0 FOR bindings only, after
			// the deferred filters pass (flworEach contract).
			c.emit(Instr{Op: OpHook, A: cu})
		}
		innermost = int32(iter)
		c.note(cl.Var, spec, varSums, known)
	}

	for _, conj := range plan.Residual {
		ei := c.addExpr(foldExpr(conj))
		wi := c.emit(Instr{Op: OpWhere, A: ei})
		if innermost >= 0 {
			c.p.instrs[wi].C = innermost
		} else {
			endPatch = append(endPatch, wi)
		}
	}

	if rp, ok := foldExpr(x.Return).(*xquery.PathExpr); ok {
		ps := pathSpec{p: rp}
		if pre, _, _, ok := c.preChain(rp, varSums, known); ok {
			ps.pre = pre
		}
		ps.desc = trunc(rp.String(), 48)
		c.p.paths = append(c.p.paths, ps)
		c.emit(Instr{Op: OpPathPush, A: int32(len(c.p.paths) - 1)})
	} else {
		ei := c.addExpr(foldExpr(x.Return))
		c.emit(Instr{Op: OpEvalPush, A: ei})
	}
	es := c.emit(Instr{Op: OpEmitSeq})
	if innermost >= 0 {
		c.p.instrs[es].C = innermost
	} else {
		endPatch = append(endPatch, es)
	}
	end := int32(len(c.p.instrs))
	for _, i := range endPatch {
		c.p.instrs[i].C = end
	}
}

// note records what is statically known about a freshly bound variable.
// known requires non-empty sums: pathOrigin recovers summaries from the
// actual nodes when a variable's sums are empty, so an empty static set
// cannot be trusted as the origin of a later chain.
func (c *compiler) note(name string, spec domainSpec, varSums map[string][]*storage.SummaryNode, known map[string]bool) {
	varSums[name] = spec.sums
	known[name] = spec.static && len(spec.sums) > 0
}

// domainFor analyzes one FOR/LET source (or top-level path): constant
// folding, static summary resolution, and invariance (no free
// variables → scan once per run).
func (c *compiler) domainFor(x xquery.Expr, varSums map[string][]*storage.SummaryNode, known map[string]bool) domainSpec {
	folded := foldExpr(x)
	spec := domainSpec{expr: folded}
	free := map[string]bool{}
	addFree(folded, nil, free)
	spec.invariant = len(free) == 0
	switch e := folded.(type) {
	case *xquery.PathExpr:
		spec.path = e
		if pre, sums, textTail, ok := c.preChain(e, varSums, known); ok {
			spec.static, spec.pre, spec.textTail = true, pre, textTail
			if textTail {
				// Text-tail domains bind decoded strings; the runtime
				// reports no summary provenance for them.
				spec.sums = nil
			} else {
				spec.sums = sums
			}
		}
	case *xquery.VarRef:
		if known[e.Name] {
			spec.static, spec.sums = true, varSums[e.Name]
		}
	default:
		// Every other shape evaluates generically: the runtime reports
		// nil summary provenance, which is itself static knowledge.
		spec.static = true
	}
	spec.desc = domDesc(&spec)
	return spec
}

// preChain resolves a path's per-step summary targets at compile time.
// ok requires a statically known origin: absolute paths, or variables
// whose (non-empty) summaries were tracked. Statically empty target
// sets are stored as non-nil empty slices — nil entries mean "resolve
// at runtime".
func (c *compiler) preChain(p *xquery.PathExpr, varSums map[string][]*storage.SummaryNode, known map[string]bool) (pre [][]*storage.SummaryNode, sums []*storage.SummaryNode, textTail, ok bool) {
	if p.Var != "" && (p.Var == "." || !known[p.Var]) {
		return nil, nil, false, false
	}
	sums = varSums[p.Var]
	pre = make([][]*storage.SummaryNode, len(p.Steps))
	for i, step := range p.Steps {
		if step.Test == xquery.TestText {
			if i != len(p.Steps)-1 {
				// Malformed (text() mid-path); leave it to the runtime.
				return nil, nil, false, false
			}
			return pre, sums, true, true
		}
		tg := c.eng.SummaryTargets(sums, i == 0 && p.Var == "", step)
		if tg == nil {
			tg = []*storage.SummaryNode{}
		}
		pre[i] = tg
		sums = tg
	}
	return pre, sums, false, true
}

// restrictCost orders literal restricts: statically costed container
// scans first (cheapest first), runtime-resolved ones after, in plan
// order.
func restrictCost(ps *predSpec) float64 {
	if ps.resolved && ps.fastOK {
		return ps.cost
	}
	return 1e300
}

// decodeCost returns the cost model's measured per-record decode cost
// for a codec (§3's cost constants, calibrated in the codec kernels).
func decodeCost(name string) float64 {
	for _, a := range costmodel.Algorithms {
		if a.Name == name {
			return a.DecodeCost
		}
	}
	return 1
}

// ---- constant folding ----

// foldExpr folds constant arithmetic (+, -, *, div over numeric
// literals — exactly the operations whose tree evaluation is a pure
// float64 function, since formatNum/parseNum round-trip float64
// losslessly). mod is excluded: the tree evaluator faults on zero
// divisors at evaluation time and folding would move that fault to
// compile time. Folding builds new nodes along changed spines only —
// the input AST is shared with the prepared statement and with
// pushdown conjunct identity, and is never mutated.
func foldExpr(x xquery.Expr) xquery.Expr {
	switch e := x.(type) {
	case *xquery.Arith:
		l, r := foldExpr(e.Left), foldExpr(e.Right)
		if ln, okL := l.(*xquery.NumberLit); okL {
			if rn, okR := r.(*xquery.NumberLit); okR {
				switch e.Op {
				case "+":
					return &xquery.NumberLit{Val: ln.Val + rn.Val}
				case "-":
					return &xquery.NumberLit{Val: ln.Val - rn.Val}
				case "*":
					return &xquery.NumberLit{Val: ln.Val * rn.Val}
				case "div":
					return &xquery.NumberLit{Val: ln.Val / rn.Val}
				}
			}
		}
		if l != e.Left || r != e.Right {
			return &xquery.Arith{Op: e.Op, Left: l, Right: r}
		}
	case *xquery.Cmp:
		l, r := foldExpr(e.Left), foldExpr(e.Right)
		if l != e.Left || r != e.Right {
			return &xquery.Cmp{Op: e.Op, Left: l, Right: r}
		}
	case *xquery.Logic:
		l, r := foldExpr(e.Left), foldExpr(e.Right)
		if l != e.Left || r != e.Right {
			return &xquery.Logic{Op: e.Op, Left: l, Right: r}
		}
	case *xquery.Call:
		args, changed := foldList(e.Args)
		if changed {
			return &xquery.Call{Name: e.Name, Args: args}
		}
	case *xquery.Sequence:
		items, changed := foldList(e.Items)
		if changed {
			return &xquery.Sequence{Items: items}
		}
	case *xquery.PathExpr:
		changed := false
		steps := make([]xquery.Step, len(e.Steps))
		for i, st := range e.Steps {
			steps[i] = st
			if len(st.Preds) == 0 {
				continue
			}
			preds, ch := foldList(st.Preds)
			if ch {
				steps[i].Preds = preds
				changed = true
			}
		}
		if changed {
			return &xquery.PathExpr{Var: e.Var, Doc: e.Doc, Steps: steps}
		}
	case *xquery.FLWOR:
		changed := false
		clauses := make([]xquery.Clause, len(e.Clauses))
		for i, cl := range e.Clauses {
			clauses[i] = cl
			if f := foldExpr(cl.Seq); f != cl.Seq {
				clauses[i].Seq = f
				changed = true
			}
		}
		where, ret, order := e.Where, e.Return, e.OrderBy
		if e.Where != nil {
			if f := foldExpr(e.Where); f != e.Where {
				where, changed = f, true
			}
		}
		if e.OrderBy != nil {
			if f := foldExpr(e.OrderBy); f != e.OrderBy {
				order, changed = f, true
			}
		}
		if f := foldExpr(e.Return); f != e.Return {
			ret, changed = f, true
		}
		if changed {
			return &xquery.FLWOR{Clauses: clauses, Where: where, OrderBy: order, OrderDesc: e.OrderDesc, Return: ret}
		}
	case *xquery.ElementCtor:
		changed := false
		attrs := make([]xquery.CtorAttr, len(e.Attrs))
		for i, a := range e.Attrs {
			attrs[i] = a
			vals, ch := foldList(a.Value)
			if ch {
				attrs[i].Value = vals
				changed = true
			}
		}
		content, ch := foldList(e.Content)
		if ch {
			changed = true
		}
		if changed {
			return &xquery.ElementCtor{Name: e.Name, Attrs: attrs, Content: content}
		}
	}
	return x
}

func foldList(xs []xquery.Expr) ([]xquery.Expr, bool) {
	out := make([]xquery.Expr, len(xs))
	changed := false
	for i, x := range xs {
		out[i] = foldExpr(x)
		if out[i] != x {
			changed = true
		}
	}
	if !changed {
		return xs, false
	}
	return out, true
}

// ---- free-variable analysis (domain invariance) ----

// addFree collects unbound variable names (the context item counts as
// the pseudo-variable "."). Step predicates bind "." locally; FLWOR
// clauses bind their variables for later clauses and the tail.
func addFree(x xquery.Expr, bound map[string]bool, free map[string]bool) {
	switch e := x.(type) {
	case nil:
		return
	case *xquery.VarRef:
		if !bound[e.Name] {
			free[e.Name] = true
		}
	case *xquery.PathExpr:
		if e.Var != "" && !bound[e.Var] {
			free[e.Var] = true
		}
		var pb map[string]bool
		for _, st := range e.Steps {
			if len(st.Preds) == 0 {
				continue
			}
			if pb == nil {
				pb = withBound(bound, ".")
			}
			for _, pr := range st.Preds {
				addFree(pr, pb, free)
			}
		}
	case *xquery.Cmp:
		addFree(e.Left, bound, free)
		addFree(e.Right, bound, free)
	case *xquery.Logic:
		addFree(e.Left, bound, free)
		addFree(e.Right, bound, free)
	case *xquery.Arith:
		addFree(e.Left, bound, free)
		addFree(e.Right, bound, free)
	case *xquery.Call:
		for _, a := range e.Args {
			addFree(a, bound, free)
		}
	case *xquery.Sequence:
		for _, it := range e.Items {
			addFree(it, bound, free)
		}
	case *xquery.ElementCtor:
		for _, a := range e.Attrs {
			for _, v := range a.Value {
				addFree(v, bound, free)
			}
		}
		for _, cnt := range e.Content {
			addFree(cnt, bound, free)
		}
	case *xquery.FLWOR:
		b := bound
		for _, cl := range e.Clauses {
			addFree(cl.Seq, b, free)
			b = withBound(b, cl.Var)
		}
		addFree(e.Where, b, free)
		addFree(e.OrderBy, b, free)
		addFree(e.Return, b, free)
	}
}

func withBound(bound map[string]bool, name string) map[string]bool {
	out := make(map[string]bool, len(bound)+1)
	for k := range bound {
		out[k] = true
	}
	out[name] = true
	return out
}

// ---- disassembly annotations ----

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func sumsDesc(sums []*storage.SummaryNode) string {
	if len(sums) == 0 {
		return "statically empty"
	}
	total := 0
	parts := make([]string, 0, len(sums))
	for _, sn := range sums {
		total += len(sn.Extent)
		parts = append(parts, sn.Path())
	}
	return fmt.Sprintf("%s (%d nodes)", strings.Join(parts, " ∪ "), total)
}

func domDesc(spec *domainSpec) string {
	var b strings.Builder
	b.WriteString(trunc(spec.expr.String(), 48))
	if spec.static && spec.path != nil {
		b.WriteString(" ; summary ")
		b.WriteString(sumsDesc(spec.sums))
		if spec.textTail {
			b.WriteString(", text()")
		}
	} else if !spec.static {
		b.WriteString(" ; runtime navigation")
	}
	if spec.invariant {
		b.WriteString(", invariant")
	}
	return b.String()
}

func predDesc(ps *predSpec) string {
	var b strings.Builder
	b.WriteString(trunc(ps.pd.Conj.String(), 40))
	switch {
	case ps.resolved && ps.fastOK && len(ps.conts) > 0:
		parts := make([]string, 0, len(ps.conts))
		for _, ct := range ps.conts {
			parts = append(parts, fmt.Sprintf("%s[%s](%d recs)", ct.Path, ct.Codec().Name(), ct.Len()))
		}
		fmt.Fprintf(&b, " ; conts %s cost=%.1f", strings.Join(parts, " "), ps.cost)
		if !ps.complete {
			b.WriteString(" incomplete")
		}
	case ps.resolved:
		b.WriteString(" ; no container fast path, deferred")
	default:
		b.WriteString(" ; runtime container resolution")
	}
	return b.String()
}

// estimateSize approximates the program's resident bytes (instructions
// plus operand pools; the AST nodes the expr pool points at are shared
// with the parse tree and counted as pointer slots only). The plan
// cache charges entries by this figure.
func (c *compiler) estimateSize() int {
	p := c.p
	sz := len(p.src) + len(p.instrs)*16
	for i := range p.doms {
		d := &p.doms[i]
		sz += 112 + len(d.desc) + len(d.preds)*4
		for _, tg := range d.pre {
			sz += 24 + len(tg)*8
		}
	}
	for i := range p.preds {
		ps := &p.preds[i]
		sz += 128 + len(ps.desc) + len(ps.conts)*8
	}
	for i := range p.paths {
		pp := &p.paths[i]
		sz += 48 + len(pp.desc)
		for _, tg := range pp.pre {
			sz += 24 + len(tg)*8
		}
	}
	sz += len(p.exprs)*16 + len(p.vars)*16
	for _, v := range p.vars {
		sz += len(v)
	}
	return sz
}
