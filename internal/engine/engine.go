package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Engine evaluates XQuery over a compressed repository. An Engine holds
// per-query state and must not be shared between goroutines; the store
// it reads is immutable, so any number of Engines may run over one
// Store concurrently.
type Engine struct {
	store *storage.Store
	// joinIdx caches container join indexes per comparison expression,
	// so correlated nested FLWORs (the Q8/Q9 shape) build the join once
	// instead of rescanning per outer binding.
	joinIdx map[*xquery.Cmp]*joinIndex
	// plans memoizes PlanFLWOR per FLWOR node and targets memoizes
	// summaryTargets per origin (the document or one summary node, the
	// FOR-bound variable case), so the per-tuple path never re-plans or
	// re-resolves. Like joinIdx they live for one evaluation.
	plans   map[*xquery.FLWOR]*FLWORPlan
	targets map[targetKey][]*storage.SummaryNode
	// ctx, when non-nil, is polled in the evaluation loop so timeouts
	// and client disconnects abort long evaluations mid-stream.
	ctx      context.Context
	ctxTick  int
	canceled error
	// sbuf is the reusable decode buffer for stringValue: one evaluation
	// atomizes many nodes, and the engine is single-goroutine, so one
	// buffer serves them all without per-call allocation.
	sbuf []byte
	// par is the intra-query worker budget for the partitioned operators
	// (decoding scans, structural joins, container fan-outs). 1 = serial.
	// Only pure container/summary reads run on workers; the engine's own
	// mutable state (joinIdx, sbuf, ctxTick) stays on the calling
	// goroutine, so results are byte-identical at every setting.
	par int
}

// New returns an engine over the store. Evaluation is serial until
// WithParallelism grants a worker budget.
func New(s *storage.Store) *Engine {
	e := &Engine{store: s, par: 1}
	e.reset()
	return e
}

// reset drops the per-evaluation memos and cancellation state, so an
// Engine reused for another evaluation starts clean.
func (e *Engine) reset() {
	e.joinIdx = map[*xquery.Cmp]*joinIndex{}
	e.plans = map[*xquery.FLWOR]*FLWORPlan{}
	e.targets = map[targetKey][]*storage.SummaryNode{}
	e.canceled = nil
}

// WithContext arms the engine's cancellation checks with ctx and
// returns the engine.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	if ctx != nil && ctx != context.Background() {
		e.ctx = ctx
	}
	return e
}

// WithParallelism sets the intra-query worker budget and returns the
// engine. n <= 0 means GOMAXPROCS (mirroring storage.LoadOptions);
// 1 keeps the serial path. Results are identical at every setting —
// partitioned operators only engage above their work floors, so small
// queries never pay fan-out overhead.
func (e *Engine) WithParallelism(n int) *Engine {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.par = n
	return e
}

// Store exposes the underlying repository.
func (e *Engine) Store() *storage.Store { return e.store }

// Query parses and evaluates a query.
func (e *Engine) Query(src string) (*Result, error) {
	expr, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Eval(expr)
}

// Eval evaluates a parsed query.
func (e *Engine) Eval(expr xquery.Expr) (*Result, error) {
	e.reset()
	if e.ctx != nil {
		// Check once up front so an already-expired deadline fails
		// deterministically, before any evaluation work.
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
	}
	env := newScope()
	items, err := e.eval(expr, env)
	if err != nil {
		return nil, err
	}
	return newEagerResult(items, e.store), nil
}

// checkCancel polls the engine's context. The poll is amortized: the
// channel receive runs every 64th call, the rest is one branch and an
// increment, cheap enough for the per-expression hot path.
func (e *Engine) checkCancel() error {
	if e.ctx == nil {
		return nil
	}
	if e.canceled != nil {
		return e.canceled
	}
	e.ctxTick++
	if e.ctxTick&63 != 0 {
		return nil
	}
	select {
	case <-e.ctx.Done():
		e.canceled = e.ctx.Err()
		return e.canceled
	default:
		return nil
	}
}

// env is the evaluation environment: variable bindings, the context
// item, and — for the compressed-domain fast paths — the summary nodes
// each variable's bindings are instances of.
type scope struct {
	vars    map[string]Seq
	varSums map[string][]*storage.SummaryNode
	ctx     Item
	ctxSums []*storage.SummaryNode
}

func newScope() *scope {
	return &scope{vars: map[string]Seq{}, varSums: map[string][]*storage.SummaryNode{}}
}

func (v *scope) clone() *scope {
	nv := newScope()
	for k, val := range v.vars {
		nv.vars[k] = val
	}
	for k, val := range v.varSums {
		nv.varSums[k] = val
	}
	nv.ctx = v.ctx
	nv.ctxSums = v.ctxSums
	return nv
}

func (v *scope) withCtx(it Item, sums []*storage.SummaryNode) *scope {
	nv := v.clone()
	nv.ctx = it
	nv.ctxSums = sums
	return nv
}

// eval dispatches on the AST.
func (e *Engine) eval(expr xquery.Expr, env *scope) (Seq, error) {
	if err := e.checkCancel(); err != nil {
		return nil, err
	}
	switch x := expr.(type) {
	case *xquery.StringLit:
		return Seq{x.Val}, nil
	case *xquery.NumberLit:
		return Seq{x.Val}, nil
	case *xquery.VarRef:
		if x.Name == "." {
			return Seq{env.ctx}, nil
		}
		s, ok := env.vars[x.Name]
		if !ok {
			return nil, fmt.Errorf("engine: unbound variable $%s", x.Name)
		}
		return s, nil
	case *xquery.Sequence:
		var out Seq
		for _, item := range x.Items {
			v, err := e.eval(item, env)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *xquery.PathExpr:
		return e.evalPath(x, env)
	case *xquery.Cmp:
		b, err := e.evalCmp(x, env)
		if err != nil {
			return nil, err
		}
		return Seq{b}, nil
	case *xquery.Logic:
		lb, err := e.evalBool(x.Left, env)
		if err != nil {
			return nil, err
		}
		if x.Op == "and" && !lb {
			return Seq{false}, nil
		}
		if x.Op == "or" && lb {
			return Seq{true}, nil
		}
		rb, err := e.evalBool(x.Right, env)
		if err != nil {
			return nil, err
		}
		return Seq{rb}, nil
	case *xquery.Arith:
		return e.evalArith(x, env)
	case *xquery.Call:
		return e.evalCall(x, env)
	case *xquery.ElementCtor:
		return e.evalCtor(x, env)
	case *xquery.FLWOR:
		return e.evalFLWOR(x, env)
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", expr)
}

func (e *Engine) evalBool(expr xquery.Expr, env *scope) (bool, error) {
	v, err := e.eval(expr, env)
	if err != nil {
		return false, err
	}
	return e.effectiveBool(v)
}

// evalCmp implements general (existential) comparisons.
func (e *Engine) evalCmp(x *xquery.Cmp, env *scope) (bool, error) {
	lv, err := e.eval(x.Left, env)
	if err != nil {
		return false, err
	}
	rv, err := e.eval(x.Right, env)
	if err != nil {
		return false, err
	}
	la, err := e.atomize(lv)
	if err != nil {
		return false, err
	}
	ra, err := e.atomize(rv)
	if err != nil {
		return false, err
	}
	for _, a := range la {
		for _, b := range ra {
			if compareAtoms(x.Op, a, b) {
				return true, nil
			}
		}
	}
	return false, nil
}

func (e *Engine) evalArith(x *xquery.Arith, env *scope) (Seq, error) {
	ln, err := e.evalNum(x.Left, env)
	if err != nil {
		return nil, err
	}
	rn, err := e.evalNum(x.Right, env)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+":
		return Seq{ln + rn}, nil
	case "-":
		return Seq{ln - rn}, nil
	case "*":
		return Seq{ln * rn}, nil
	case "div":
		return Seq{ln / rn}, nil
	case "mod":
		if int64(rn) == 0 {
			return nil, fmt.Errorf("engine: modulo by zero")
		}
		return Seq{float64(int64(ln) % int64(rn))}, nil
	}
	return nil, fmt.Errorf("engine: unknown arithmetic operator %s", x.Op)
}

func (e *Engine) evalNum(expr xquery.Expr, env *scope) (float64, error) {
	v, err := e.eval(expr, env)
	if err != nil {
		return 0, err
	}
	if len(v) != 1 {
		return 0, fmt.Errorf("engine: arithmetic on a sequence of %d items", len(v))
	}
	a, err := e.stringValue(v[0])
	if err != nil {
		return 0, err
	}
	f, ok := parseNum(a)
	if !ok {
		return 0, fmt.Errorf("engine: %q is not a number", a)
	}
	return f, nil
}

// evalCtor builds a Fragment.
func (e *Engine) evalCtor(x *xquery.ElementCtor, env *scope) (Seq, error) {
	frag := &Fragment{Name: x.Name}
	for _, a := range x.Attrs {
		var sb strings.Builder
		for _, part := range a.Value {
			v, err := e.eval(part, env)
			if err != nil {
				return nil, err
			}
			atoms, err := e.atomize(v)
			if err != nil {
				return nil, err
			}
			sb.WriteString(strings.Join(atoms, " "))
		}
		frag.Attrs = append(frag.Attrs, FragAttr{Name: a.Name, Value: sb.String()})
	}
	for _, c := range x.Content {
		if lit, isLit := c.(*xquery.StringLit); isLit {
			// Whitespace-only literal chunks between constructor items
			// are boilerplate, not data.
			if strings.TrimSpace(lit.Val) == "" {
				continue
			}
			frag.Content = append(frag.Content, lit.Val)
			continue
		}
		v, err := e.eval(c, env)
		if err != nil {
			return nil, err
		}
		frag.Content = append(frag.Content, v...)
	}
	return Seq{frag}, nil
}

// evalBindingSeq evaluates a FOR/LET source. When the source is a node
// path, the node set is returned directly (ids non-nil) so FOR loops
// avoid boxing and re-sorting the domain; otherwise the generic
// sequence is returned.
func (e *Engine) evalBindingSeq(expr xquery.Expr, env *scope) (Seq, algebra.NodeSet, []*storage.SummaryNode, error) {
	return e.bindingSeqPre(expr, env, nil)
}

// bindingSeqPre is evalBindingSeq with optional precomputed per-step
// summary targets for the path case (see evalPathNodesPre).
func (e *Engine) bindingSeqPre(expr xquery.Expr, env *scope, pre [][]*storage.SummaryNode) (Seq, algebra.NodeSet, []*storage.SummaryNode, error) {
	if p, isPath := expr.(*xquery.PathExpr); isPath {
		st, textTail, err := e.evalPathNodesPre(p, env, pre)
		if err != nil {
			if err == errNonNodePath {
				v, err2 := e.eval(expr, env)
				return v, nil, nil, err2
			}
			return nil, nil, nil, err
		}
		if textTail {
			texts, err := algebra.TextContent(e.store, st.nodes)
			if err != nil {
				return nil, nil, nil, err
			}
			seq := make(Seq, len(texts))
			for i, t := range texts {
				seq[i] = t
			}
			return seq, nil, nil, nil
		}
		if st.nodes == nil {
			st.nodes = algebra.NodeSet{}
		}
		return nil, st.nodes, st.sums, nil
	}
	v, err := e.eval(expr, env)
	if err != nil {
		return nil, nil, nil, err
	}
	// Propagate summary knowledge through plain variable references.
	// The node-set fast path applies only when the sequence is already
	// in document order: FOR must preserve the bound sequence's order
	// (it may carry a deliberate ORDER BY arrangement).
	if vr, isVar := expr.(*xquery.VarRef); isVar {
		if ids, ok := docOrderedNodeSeq(v); ok && len(ids) > 0 {
			return nil, ids, env.varSums[vr.Name], nil
		}
		return v, nil, env.varSums[vr.Name], nil
	}
	return v, nil, nil, nil
}

// docOrderedNodeSeq extracts the node IDs of a sequence only if they
// are already strictly ascending (document order).
func docOrderedNodeSeq(s Seq) (algebra.NodeSet, bool) {
	out := make(algebra.NodeSet, 0, len(s))
	var prev storage.NodeID
	for _, it := range s {
		id, isNode := it.(storage.NodeID)
		if !isNode || id <= prev {
			return nil, false
		}
		out = append(out, id)
		prev = id
	}
	return out, true
}

// splitConjuncts flattens a WHERE tree of ANDs.
func splitConjuncts(where xquery.Expr) []xquery.Expr {
	if where == nil {
		return nil
	}
	if l, isLogic := where.(*xquery.Logic); isLogic && l.Op == "and" {
		return append(splitConjuncts(l.Left), splitConjuncts(l.Right)...)
	}
	return []xquery.Expr{where}
}

// splitVarCmp matches `$var/rel op literal` (either side) for the given
// variable, returning the relative path (re-rooted at the context), the
// literal and the effective operator.
func splitVarCmp(cmp *xquery.Cmp, varName string) (*xquery.PathExpr, string, string, bool) {
	lit := func(e xquery.Expr) (string, bool) {
		switch v := e.(type) {
		case *xquery.StringLit:
			return v.Val, true
		case *xquery.NumberLit:
			return formatNum(v.Val), true
		}
		return "", false
	}
	try := func(side, other xquery.Expr, op string) (*xquery.PathExpr, string, string, bool) {
		p, isPath := side.(*xquery.PathExpr)
		if !isPath || p.Var != varName {
			return nil, "", "", false
		}
		l, isLit := lit(other)
		if !isLit {
			return nil, "", "", false
		}
		rel := &xquery.PathExpr{Var: ".", Steps: p.Steps}
		return rel, l, op, true
	}
	if rel, l, op, ok := try(cmp.Left, cmp.Right, cmp.Op); ok {
		return rel, l, op, true
	}
	return try(cmp.Right, cmp.Left, flipOp(cmp.Op))
}
