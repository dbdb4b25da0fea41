package engine

import (
	"sort"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Pushdown is a WHERE conjunct statically assigned to a FOR clause: it
// is applied while computing the clause's domain instead of as a
// per-tuple filter. Each pushdown keeps the original conjunct so the
// runtime can fall back to tuple-at-a-time evaluation when the
// compressed-domain shape does not materialize (e.g. untracked summary
// nodes).
type Pushdown struct {
	Conj *xquery.Cmp
	// literal comparison: $v/rel op literal
	IsLit bool
	Rel   *xquery.PathExpr
	Op    string
	Lit   string
	// equality join: $v/relThis = $other/relOther
	OtherVar string
	RelThis  *xquery.PathExpr
	RelOther *xquery.PathExpr
}

// FLWORPlan is the static evaluation plan of one FLWOR: the tree
// walker, the VM compiler and Explain all read the same plan.
type FLWORPlan struct {
	Pushdowns [][]Pushdown  // clause index -> pushdowns, in plan order
	Residual  []xquery.Expr // conjuncts evaluated per tuple
}

// PlanFLWOR returns the FLWOR's plan, computed once per query: a nested
// FLWOR evaluated once per outer tuple (the Q8/Q9 shape) reuses it
// instead of re-planning. The memo is keyed by the AST node, like
// joinIdx, and reset with it at the start of every evaluation.
func (e *Engine) PlanFLWOR(x *xquery.FLWOR) *FLWORPlan {
	if plan, ok := e.plans[x]; ok {
		return plan
	}
	plan := planFLWOR(x)
	e.plans[x] = plan
	return plan
}

// planFLWOR assigns WHERE conjuncts to FOR clauses.
func planFLWOR(x *xquery.FLWOR) *FLWORPlan {
	plan := &FLWORPlan{Pushdowns: make([][]Pushdown, len(x.Clauses))}
	clauseOf := map[string]int{}
	for i, c := range x.Clauses {
		if !c.Let {
			clauseOf[c.Var] = i
		}
	}
	for _, conj := range splitConjuncts(x.Where) {
		cmp, isCmp := conj.(*xquery.Cmp)
		if !isCmp {
			plan.Residual = append(plan.Residual, conj)
			continue
		}
		assigned := false
		// literal comparison on a FOR variable of this FLWOR
		for v, ci := range clauseOf {
			if rel, lit, op, ok := splitVarCmp(cmp, v); ok {
				plan.Pushdowns[ci] = append(plan.Pushdowns[ci], Pushdown{
					Conj: cmp, IsLit: true, Rel: rel, Op: op, Lit: lit,
				})
				assigned = true
				break
			}
		}
		if assigned {
			continue
		}
		// equality join between two variables' paths
		if cmp.Op == "=" {
			lp, lok := cmp.Left.(*xquery.PathExpr)
			rp, rok := cmp.Right.(*xquery.PathExpr)
			if lok && rok && lp.Var != "" && rp.Var != "" && lp.Var != "." && rp.Var != "." {
				li, lIn := clauseOf[lp.Var]
				ri, rIn := clauseOf[rp.Var]
				switch {
				case lIn && (!rIn || li >= ri):
					plan.Pushdowns[li] = append(plan.Pushdowns[li], Pushdown{
						Conj: cmp, OtherVar: rp.Var,
						RelThis:  &xquery.PathExpr{Var: ".", Steps: lp.Steps},
						RelOther: &xquery.PathExpr{Var: ".", Steps: rp.Steps},
					})
					assigned = true
				case rIn:
					plan.Pushdowns[ri] = append(plan.Pushdowns[ri], Pushdown{
						Conj: cmp, OtherVar: lp.Var,
						RelThis:  &xquery.PathExpr{Var: ".", Steps: rp.Steps},
						RelOther: &xquery.PathExpr{Var: ".", Steps: lp.Steps},
					})
					assigned = true
				}
			}
		}
		if !assigned {
			plan.Residual = append(plan.Residual, conj)
		}
	}
	return plan
}

// evalFLWOR evaluates for/let/where/return eagerly, collecting every
// RETURN chunk into one sequence.
func (e *Engine) evalFLWOR(x *xquery.FLWOR, env *scope) (Seq, error) {
	var out Seq
	err := e.flworEach(x, env, func(v Seq) error {
		out = append(out, v...)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// flworEach runs for/let/where/return with the §4 optimizations —
// WHERE conjuncts of the form path-op-literal become compressed-domain
// container matches restricting the FOR domain, and equality joins
// between variables are answered by a container join index built once
// (the compressed merge join of the Q9 plan when the sides share a
// source model) instead of rescanning per outer binding — handing each
// RETURN chunk to emit as soon as its bindings are settled. An error
// from emit aborts the tuple walk immediately, so a streaming consumer
// that stops pulling also stops binding evaluation (and with it every
// predicate-side decompression for the tuples never reached). When the
// FLWOR has an ORDER BY, chunks are necessarily buffered and emitted
// after the sort.
//
// hook, when non-nil, observes the clause-0 FOR binding node before the
// tuples derived from it are walked (the Engine.bindHook contract). It
// is threaded explicitly — not read from the engine — so nested FLWORs
// evaluated inside RETURN/WHERE (which go through evalFLWOR) never fire
// the top-level hook.
func (e *Engine) flworEach(x *xquery.FLWOR, env *scope, emit func(Seq) error, hook func(storage.NodeID)) error {
	plan := e.PlanFLWOR(x)
	var tuples []Seq // buffered return chunks when ordering
	var keys []string

	var walk func(ci int, env *scope) error
	walk = func(ci int, env *scope) error {
		if ci == len(x.Clauses) {
			for _, c := range plan.Residual {
				ok, err := e.evalBool(c, env)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			v, err := e.eval(x.Return, env)
			if err != nil {
				return err
			}
			if x.OrderBy != nil {
				kseq, err := e.eval(x.OrderBy, env)
				if err != nil {
					return err
				}
				katoms, err := e.atomize(kseq)
				if err != nil {
					return err
				}
				key := ""
				if len(katoms) > 0 {
					key = katoms[0]
				}
				keys = append(keys, key)
				tuples = append(tuples, v)
				return nil
			}
			return emit(v)
		}
		cl := x.Clauses[ci]
		seq, ids, sums, err := e.evalBindingSeq(cl.Seq, env)
		if err != nil {
			return err
		}
		if cl.Let {
			sub := env.clone()
			if ids != nil {
				seq = make(Seq, len(ids))
				for i, id := range ids {
					seq[i] = id
				}
			}
			sub.vars[cl.Var] = seq
			sub.varSums[cl.Var] = sums
			return walk(ci+1, sub)
		}
		pds := plan.Pushdowns[ci]
		if ids == nil {
			var fallbackFilters []xquery.Expr
			for _, pd := range pds {
				fallbackFilters = append(fallbackFilters, pd.Conj)
			}
			for _, it := range seq {
				sub := env.clone()
				sub.vars[cl.Var] = Seq{it}
				sub.varSums[cl.Var] = sums
				if ok, err := e.passAll(fallbackFilters, sub); err != nil {
					return err
				} else if !ok {
					continue
				}
				if hook != nil && ci == 0 {
					if id, isNode := it.(storage.NodeID); isNode {
						hook(id)
					}
				}
				if err := walk(ci+1, sub); err != nil {
					return err
				}
			}
			return nil
		}
		cur := ids
		var perTuple []xquery.Expr
		for _, pd := range pds {
			if pd.IsLit {
				owners, handled, err := e.matchOwners(sums, pd.Rel, pd.Op, pd.Lit, e.par)
				if err != nil {
					return err
				}
				if handled {
					cur = algebra.SemiJoinAncestorPar(e.store, cur, owners, e.par)
					continue
				}
				perTuple = append(perTuple, pd.Conj)
				continue
			}
			// join pushdown: restrict to the partners of the other
			// variable's current binding
			restricted, handled, err := e.applyJoin(pd, cur, sums, env)
			if err != nil {
				return err
			}
			if handled {
				cur = restricted
				continue
			}
			perTuple = append(perTuple, pd.Conj)
		}
		for _, id := range cur {
			sub := env.clone()
			sub.vars[cl.Var] = Seq{id}
			sub.varSums[cl.Var] = sums
			if ok, err := e.passAll(perTuple, sub); err != nil {
				return err
			} else if !ok {
				continue
			}
			if hook != nil && ci == 0 {
				hook(id)
			}
			if err := walk(ci+1, sub); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, env); err != nil {
		return err
	}
	if x.OrderBy != nil {
		order := make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
		less := func(a, b int) bool { return orderKeyLess(keys[order[a]], keys[order[b]]) }
		if x.OrderDesc {
			inner := less
			less = func(a, b int) bool { return inner(b, a) }
		}
		sort.SliceStable(order, less)
		for _, i := range order {
			if err := emit(tuples[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// orderKeyLess sorts numerically when both keys are numbers.
func orderKeyLess(a, b string) bool {
	fa, oka := parseNum(a)
	fb, okb := parseNum(b)
	if oka && okb {
		return fa < fb
	}
	return a < b
}

func (e *Engine) passAll(filters []xquery.Expr, env *scope) (bool, error) {
	for _, f := range filters {
		ok, err := e.evalBool(f, env)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// joinIndex maps nodes of the "other" side of an equality join to their
// partner nodes on "this" side. Built once per (comparison, summary
// fingerprint), it is what turns the Q8/Q9 correlated nested loops into
// a single container join.
type joinIndex struct {
	key     string
	byOther map[storage.NodeID]algebra.NodeSet
	merged  bool // true when the compressed merge join was used
}

// applyJoin restricts cur (the domain of this clause's variable) to the
// join partners of the other variable's current binding.
func (e *Engine) applyJoin(pd Pushdown, cur algebra.NodeSet, sums []*storage.SummaryNode, env *scope) (algebra.NodeSet, bool, error) {
	otherSeq, bound := env.vars[pd.OtherVar]
	otherSums := env.varSums[pd.OtherVar]
	if !bound || len(otherSeq) != 1 || len(otherSums) == 0 || len(sums) == 0 {
		return nil, false, nil
	}
	otherNode, isNode := otherSeq[0].(storage.NodeID)
	if !isNode {
		return nil, false, nil
	}
	idx, ok, err := e.joinIndexFor(pd, sums, otherSums)
	if err != nil || !ok {
		return nil, ok, err
	}
	matches := idx.byOther[otherNode]
	// The matches are usually a tiny subset of the clause domain: probe
	// them into cur by binary search instead of a full linear merge.
	var out algebra.NodeSet
	for _, m := range matches {
		i := sort.Search(len(cur), func(k int) bool { return cur[k] >= m })
		if i < len(cur) && cur[i] == m {
			out = append(out, m)
		}
	}
	return out, true, nil
}

// joinIndexFor builds (or reuses) the join index for a comparison.
func (e *Engine) joinIndexFor(pd Pushdown, sums, otherSums []*storage.SummaryNode) (*joinIndex, bool, error) {
	key := sumFingerprint(sums) + "|" + sumFingerprint(otherSums)
	if idx, ok := e.joinIdx[pd.Conj]; ok && idx.key == key {
		return idx, true, nil
	}
	thisConts, _, ok1 := e.relValueTarget(sums, pd.RelThis)
	otherConts, _, ok2 := e.relValueTarget(otherSums, pd.RelOther)
	if !ok1 || !ok2 || len(thisConts) == 0 || len(otherConts) == 0 {
		return nil, false, nil
	}
	thisExtent := algebra.SummaryAccess(sums)
	otherExtent := algebra.SummaryAccess(otherSums)
	idx := &joinIndex{key: key, byOther: map[storage.NodeID]algebra.NodeSet{}}
	for _, tc := range thisConts {
		for _, oc := range otherConts {
			pairs, merged, err := algebra.JoinContainers(tc, oc)
			if err != nil {
				return nil, false, err
			}
			idx.merged = idx.merged || merged
			if len(pairs) == 0 {
				continue
			}
			// Map each side's value owners up to the binding level.
			thisAnc := ancestorMap(e.store, thisExtent, ownersOf(pairs, true), e.par)
			otherAnc := ancestorMap(e.store, otherExtent, ownersOf(pairs, false), e.par)
			for _, p := range pairs {
				tn, okT := thisAnc[p.A]
				on, okO := otherAnc[p.B]
				if okT && okO {
					idx.byOther[on] = append(idx.byOther[on], tn)
				}
			}
		}
	}
	for k := range idx.byOther {
		idx.byOther[k] = algebra.SortUnique(idx.byOther[k])
	}
	e.joinIdx[pd.Conj] = idx
	return idx, true, nil
}

func ownersOf(pairs []algebra.Pair, first bool) algebra.NodeSet {
	ids := make([]storage.NodeID, 0, len(pairs))
	for _, p := range pairs {
		if first {
			ids = append(ids, p.A)
		} else {
			ids = append(ids, p.B)
		}
	}
	return algebra.SortUnique(ids)
}

// ancestorMap maps each inner node to its covering node in outer,
// splitting the structural merge across up to par workers.
func ancestorMap(s *storage.Store, outer, inner algebra.NodeSet, par int) map[storage.NodeID]storage.NodeID {
	m := make(map[storage.NodeID]storage.NodeID, len(inner))
	for _, p := range algebra.MapToAncestorInPar(s, outer, inner, par) {
		m[p.B] = p.A
	}
	return m
}

func sumFingerprint(sums []*storage.SummaryNode) string {
	b := make([]byte, 0, 4*len(sums))
	for _, sn := range sums {
		b = append(b, byte(sn.ID), byte(sn.ID>>8), byte(sn.ID>>16), byte(sn.ID>>24))
	}
	return string(b)
}
