package engine

// vmops exports the evaluator's internals to the bytecode VM
// (internal/vm). The VM's compiler resolves structure-summary targets
// and predicate containers at compile time and its run loop drives
// binding iteration directly, but every set-at-a-time operation — path
// navigation, compressed-domain container matches, join indexes,
// per-tuple expression evaluation — runs through the engine code here.

import (
	"context"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Env is an exported handle on the evaluation environment (variable
// bindings plus their summary-node provenance). The VM keeps one Env
// per run and rebinds variables in place as its cursors advance; the
// engine never mutates an Env passed to it (nested FLWOR evaluation
// clones internally), so in-place rebinding is safe.
type Env struct{ s *scope }

// NewEnv returns a fresh, empty environment.
func (e *Engine) NewEnv() *Env { return &Env{s: newScope()} }

// Reset drops every binding (the VM emits a reset at each top-level
// block boundary so sibling blocks cannot see each other's variables).
func (v *Env) Reset() { v.s = newScope() }

// Bind sets a variable's value and summary provenance.
func (v *Env) Bind(name string, seq Seq, sums []*storage.SummaryNode) {
	v.s.vars[name] = seq
	v.s.varSums[name] = sums
}

// EvalExpr evaluates an arbitrary expression under env — the VM's
// fallback for shapes it does not compile (nested FLWORs, constructors,
// aggregates), evaluated by the engine's expression evaluator.
func (e *Engine) EvalExpr(x xquery.Expr, env *Env) (Seq, error) {
	return e.eval(x, env.s)
}

// EvalBoolExpr evaluates an expression to its effective boolean value.
func (e *Engine) EvalBoolExpr(x xquery.Expr, env *Env) (bool, error) {
	return e.evalBool(x, env.s)
}

// BindingSeq evaluates a FOR/LET source (evalBindingSeq), with optional
// precomputed per-step summary targets for path sources.
func (e *Engine) BindingSeq(x xquery.Expr, env *Env, pre [][]*storage.SummaryNode) (Seq, algebra.NodeSet, []*storage.SummaryNode, error) {
	return e.bindingSeqPre(x, env.s, pre)
}

// PathNodes evaluates the structural part of a path (evalPathNodesPre)
// with optional precomputed per-step targets. textTail reports a final
// text() step; the returned nodes are then the text owners.
func (e *Engine) PathNodes(p *xquery.PathExpr, env *Env, pre [][]*storage.SummaryNode) (algebra.NodeSet, []*storage.SummaryNode, bool, error) {
	st, textTail, err := e.evalPathNodesPre(p, env.s, pre)
	return st.nodes, st.sums, textTail, err
}

// EvalPathExpr evaluates a full path expression to a sequence
// (evalPath), with optional precomputed per-step targets.
func (e *Engine) EvalPathExpr(p *xquery.PathExpr, env *Env, pre [][]*storage.SummaryNode) (Seq, error) {
	return e.evalPathPre(p, env.s, pre)
}

// StaticPath resolves a path's summary nodes without touching extents
// (compile-time twin of the runtime step resolution; exact mirrors
// pathState.exact).
func (e *Engine) StaticPath(p *xquery.PathExpr, varSums map[string][]*storage.SummaryNode) ([]*storage.SummaryNode, bool) {
	return e.staticPath(p, varSums)
}

// SummaryTargets resolves one step's summary targets from the given
// origin summary nodes — the per-step unit StaticPath is built from.
func (e *Engine) SummaryTargets(sums []*storage.SummaryNode, fromDocument bool, step xquery.Step) []*storage.SummaryNode {
	return e.summaryTargets(sums, fromDocument, step)
}

// RelValueTarget resolves a context-relative predicate path to its
// value containers (see relValueTarget).
func (e *Engine) RelValueTarget(sums []*storage.SummaryNode, p *xquery.PathExpr) ([]*storage.Container, bool, bool) {
	return e.relValueTarget(sums, p)
}

// MatchOwners runs the compressed-domain literal-predicate fast path
// with runtime container resolution (the VM's dynamic case, when the
// clause's summary nodes were not statically known).
func (e *Engine) MatchOwners(sums []*storage.SummaryNode, rel *xquery.PathExpr, op, lit string) (algebra.NodeSet, bool, error) {
	return e.matchOwners(sums, rel, op, lit, e.par)
}

// MatchOwnersConts runs the fast path over statically resolved
// containers (the VM's compiled case).
func (e *Engine) MatchOwnersConts(conts []*storage.Container, complete bool, op, lit string) (algebra.NodeSet, bool, error) {
	return e.matchOwnersConts(conts, complete, op, lit, e.par)
}

// SemiJoinOwners restricts cur to the nodes having an owner in owners
// within their subtree — the semijoin half of a pushdown.
func (e *Engine) SemiJoinOwners(cur, owners algebra.NodeSet) algebra.NodeSet {
	return algebra.SemiJoinAncestorPar(e.store, cur, owners, e.par)
}

// ApplyJoinPushdown restricts cur to the join partners of the other
// variable's current binding (applyJoin), building or reusing the
// engine's per-comparison join index.
func (e *Engine) ApplyJoinPushdown(pd Pushdown, cur algebra.NodeSet, sums []*storage.SummaryNode, env *Env) (algebra.NodeSet, bool, error) {
	return e.applyJoin(pd, cur, sums, env.s)
}

// CheckCancel polls the engine's context (amortized); the VM calls it
// once per binding iteration.
func (e *Engine) CheckCancel() error { return e.checkCancel() }

// ContextErr reports the armed context's error, nil when none is armed
// (the VM's up-front deadline check, matching Eval's).
func (e *Engine) ContextErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// Context returns the armed context (nil when none).
func (e *Engine) Context() context.Context { return e.ctx }

// NewPullResult wraps a pull function as this engine's streaming
// Result — the adapter that lets the VM's run loop BE the cursor, with
// no coroutine in between.
func (e *Engine) NewPullResult(pull func() (Item, error, bool), stop func()) *Result {
	return &Result{store: e.store, ctx: e.ctx, pull: pull, stop: stop}
}
