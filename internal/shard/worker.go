package shard

import (
	"context"
	"fmt"
	"sync"

	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/vm"
	"xquec/internal/xquery"
)

// Request is one member evaluation request. The fields are plain data —
// query text and scalar knobs — so the same request can cross an RPC
// boundary unchanged. The parsed form and the caller's program source
// ride along as unexported in-process optimizations (compile once, fan
// out N times); a remote worker simply re-parses the text.
type Request struct {
	// Query is the query text.
	Query string
	// Parallelism is the member-local intra-query worker budget
	// (engine.WithParallelism semantics; 0 = GOMAXPROCS).
	Parallelism int

	expr    xquery.Expr                               // coordinator-parsed AST; nil forces a parse
	program func(*storage.Store) (*vm.Program, error) // caller's per-store programs; nil compiles here
}

// Item is one member result item: its global document-order rank and
// its serialized XML/text. Serialization happens member-side — failure
// isolation demands that a corrupt member fail inside its own worker,
// not during the merge — and bytes are what an RPC worker would ship
// anyway.
type Item struct {
	Rank uint64
	XML  []byte
}

// Stream is one member's ordered result stream. Ranks are strictly
// non-decreasing; items sharing a binding share a rank and stay
// adjacent.
type Stream interface {
	// Next returns the next item; ok=false ends the stream. A non-nil
	// error is terminal.
	Next() (Item, bool, error)
	// Close releases the evaluation; safe after exhaustion.
	Close() error
}

// Worker evaluates requests against one member store. Implementations must
// allow concurrent Query calls (the coordinator hedges stragglers by
// re-dispatching to the same worker). The interface is deliberately
// RPC-shaped: everything in is serializable, everything out is
// (rank, bytes) pairs.
type Worker interface {
	// Shard returns the worker's member index.
	Shard() int
	// Query starts an evaluation. ctx cancellation must abort it.
	Query(ctx context.Context, req Request) (Stream, error)
}

// Workers returns the set's in-process workers (one per member),
// building them on first use.
func (s *Set) Workers() []Worker {
	s.workersOnce.Do(func() {
		s.workers = make([]Worker, len(s.Stores))
		for i := range s.Stores {
			s.workers[i] = &inprocWorker{set: s, shard: i}
		}
	})
	return s.workers
}

// inprocWorker evaluates on a goroutine against the local member store.
type inprocWorker struct {
	set   *Set
	shard int

	mu    sync.Mutex
	plans map[string]*vm.Program
}

func (w *inprocWorker) Shard() int { return w.shard }

func (w *inprocWorker) Query(ctx context.Context, req Request) (Stream, error) {
	prog, err := w.plan(req)
	if err != nil {
		return nil, err
	}
	st := &inprocStream{w: w}
	res, err := prog.Run(vm.RunOptions{
		Ctx:         ctx,
		Parallelism: req.Parallelism,
		BindHook:    func(id storage.NodeID) { st.origin = id },
	})
	if err != nil {
		return nil, err
	}
	st.res = res
	return st, nil
}

// plan caches compiled queries per worker (the in-process stand-in for
// a remote worker's plan cache), reused across requests: the
// coordinator fans the same query out repeatedly under hedging and
// repeated client calls. The program is per member, since its operands
// resolve against this member's summary and containers. On a miss the
// request's program source (a prepared statement's per-store cache) is
// asked first, so a program the caller already compiled for this store
// is never compiled twice; otherwise the request's AST, when present,
// skips the re-parse. The lock is not held while compiling: two
// concurrent misses (a hedge) may both build the same plan, and either
// may be kept.
func (w *inprocWorker) plan(req Request) (*vm.Program, error) {
	w.mu.Lock()
	prog, ok := w.plans[req.Query]
	w.mu.Unlock()
	if ok {
		return prog, nil
	}
	st := w.set.Stores[w.shard]
	var err error
	if req.program != nil {
		prog, err = req.program(st)
	} else {
		expr := req.expr
		if expr == nil {
			if expr, err = xquery.Parse(req.Query); err != nil {
				return nil, err
			}
		}
		prog, err = vm.Compile(expr, st, req.Query)
	}
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	if w.plans == nil {
		w.plans = map[string]*vm.Program{}
	}
	w.plans[req.Query] = prog
	w.mu.Unlock()
	return prog, nil
}

// inprocStream adapts an engine result to the Stream interface,
// stamping each item with its topology rank. origin is written by the
// VM's bind hook strictly before the item it belongs to is yielded, and
// the VM only advances inside Next, so reading origin after Next is
// race-free.
type inprocStream struct {
	w      *inprocWorker
	res    *engine.Result
	origin storage.NodeID
}

func (s *inprocStream) Next() (Item, bool, error) {
	it, ok, err := s.res.Next()
	if err != nil || !ok {
		return Item{}, false, err
	}
	if s.origin == 0 {
		return Item{}, false, fmt.Errorf("shard: item has no binding origin (query was not scatter-analyzed?)")
	}
	topo := &s.w.set.topo
	rank, inSubtree := topo.Rank(s.w.shard, s.origin)
	if !inSubtree {
		return Item{}, false, fmt.Errorf("shard: binding %d of %s %d is a spine node", s.origin, topo.Member, s.w.shard)
	}
	xml, err := s.res.AppendItemXML(nil, it)
	if err != nil {
		return Item{}, false, err
	}
	return Item{Rank: rank, XML: xml}, true, nil
}

func (s *inprocStream) Close() error { return s.res.Close() }
