package shard

import (
	"context"
	"errors"
	"sync"
	"time"

	"xquec/internal/storage"
	"xquec/internal/vm"
	"xquec/internal/xpar"
	"xquec/internal/xquery"
)

// Options configures one scattered evaluation.
type Options struct {
	// Partial selects the partial-results policy: false (fail-fast)
	// aborts the whole query on the first shard failure; true drops the
	// failing shard's remaining items, keeps merging the healthy shards,
	// and flags the cursor (Cursor.Partial). Context expiry is never
	// partial — a deadline fails the query under either policy.
	Partial bool
	// HedgeAfter re-dispatches a shard whose stream has produced nothing
	// for this long ("straggler hedging"): a second evaluation of the
	// same request starts on the same worker, the first stream to
	// deliver wins, the loser is cancelled. Results are identical either
	// way — both streams compute the same rank-stamped items. 0 disables.
	HedgeAfter time.Duration
	// Fanout bounds how many shards evaluate concurrently (xpar worker
	// budget). 0 or >= shard count means all shards at once.
	Fanout int
	// Parallelism is the per-shard intra-query worker budget.
	Parallelism int
}

// Coordinator fans a query out to per-shard workers and merges their
// ordered streams. It is stateless across queries and safe for
// concurrent Scatter calls.
type Coordinator struct {
	set     *Set
	workers []Worker
}

// NewCoordinator returns a coordinator over the set's in-process
// workers.
func NewCoordinator(set *Set) *Coordinator {
	return &Coordinator{set: set, workers: set.Workers()}
}

// NewCoordinatorWorkers returns a coordinator over explicit workers —
// the seam for fault-injection tests (and, later, RPC workers).
func NewCoordinatorWorkers(set *Set, workers []Worker) *Coordinator {
	return &Coordinator{set: set, workers: workers}
}

// Scatter compiles the query once, starts the bounded fan-out, and
// returns the merging cursor. Evaluation is lazy per shard stream but
// eager in dispatch: shards begin evaluating (into their unbounded
// queues) as the fan-out schedules them, regardless of merge progress.
func (c *Coordinator) Scatter(ctx context.Context, query string, opts Options) (*Cursor, error) {
	expr, err := xquery.Parse(query)
	if err != nil {
		return nil, err
	}
	return c.ScatterExpr(ctx, query, expr, nil, opts)
}

// ScatterExpr is Scatter for callers that already hold the parsed
// query (prepared statements, plan caches): no parse happens at all.
// query must be the text expr was parsed from — it is what crosses an
// RPC boundary to workers that cannot share the AST. program, when
// non-nil, supplies the compiled program for a member store to workers
// that have not cached one yet.
func (c *Coordinator) ScatterExpr(ctx context.Context, query string, expr xquery.Expr, program func(*storage.Store) (*vm.Program, error), opts Options) (*Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	counters.scatterQueries.Add(1)

	cctx, cancel := context.WithCancel(ctx)
	n := len(c.workers)
	queues := make([]*queue, n)
	for i := range queues {
		queues[i] = newQueue()
	}
	cur := &Cursor{
		queues:  queues,
		ctx:     cctx,
		cancel:  cancel,
		partial: opts.Partial,
	}
	req := Request{Query: query, Parallelism: opts.Parallelism, expr: expr, program: program}
	fanout := opts.Fanout
	if fanout <= 0 || fanout > n {
		fanout = n
	}
	go func() {
		err := xpar.ForEach(fanout, n, func(i int) error {
			return c.runShard(cctx, c.workers[i], queues[i], req, opts)
		})
		if err != nil {
			// Fail-fast root cause: record it, wake every waiter, and
			// sweep-close all queues (shards the fan-out never started
			// would otherwise leave the merge waiting forever). closeWith
			// keeps the first close, so shards that already failed or
			// finished keep their own terminal state.
			cur.noteRootErr(err)
			cancel()
			for _, q := range queues {
				q.closeWith(err)
			}
		}
	}()
	return cur, nil
}

// runShard evaluates one shard into its queue, applying the hedging
// and partial-results policies. A returned error aborts the fan-out
// (fail-fast); nil keeps the other shards running.
func (c *Coordinator) runShard(ctx context.Context, w Worker, out *queue, req Request, opts Options) error {
	counters.shardStreams.Add(1)
	var err error
	if opts.HedgeAfter > 0 {
		err = c.pumpHedged(ctx, w, out, req, opts)
	} else {
		err = pump(ctx, w, out, req)
	}
	if err != nil {
		counters.shardFailures.Add(1)
		out.closeWith(err)
		if opts.Partial && !isCtxErr(err) {
			return nil // isolate: the cursor drops this shard, others proceed
		}
		return err
	}
	out.closeWith(nil)
	return nil
}

// pump is the non-hedged path: evaluate synchronously on the fan-out
// goroutine, pushing into the (unbounded) queue.
func pump(ctx context.Context, w Worker, out *queue, req Request) error {
	st, err := w.Query(ctx, req)
	if err != nil {
		return err
	}
	defer st.Close()
	for {
		it, ok, err := st.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		out.push(it)
	}
}

// pullInto runs one stream to completion into a private queue; used by
// the hedged path, where the elector must be able to observe "no first
// item yet" while the stream is still working.
func pullInto(ctx context.Context, w Worker, req Request, q *queue) {
	st, err := w.Query(ctx, req)
	if err != nil {
		q.closeWith(err)
		return
	}
	defer st.Close()
	for {
		it, ok, err := st.Next()
		if err != nil {
			q.closeWith(err)
			return
		}
		if !ok {
			q.closeWith(nil)
			return
		}
		q.push(it)
	}
}

// pumpHedged races a primary stream against a hedge launched after
// HedgeAfter of first-item silence. The first stream to reach a
// decision — an item, a clean end, or (if the other has already
// failed) an error — wins and is drained into out; the loser's context
// is cancelled. Both streams evaluate the same deterministic request,
// so the winner's identity never changes the merged result.
func (c *Coordinator) pumpHedged(ctx context.Context, w Worker, out *queue, req Request, opts Options) error {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	qp := newQueue()
	go pullInto(pctx, w, req, qp)

	timer := time.NewTimer(opts.HedgeAfter)
	defer timer.Stop()
	it, ok, timedOut, err := qp.popTimeout(ctx, timer.C)
	if !timedOut {
		// The primary decided before the hedge threshold.
		if err != nil {
			return err
		}
		if !ok {
			return nil // clean empty stream
		}
		out.push(it)
		return drain(ctx, qp, out)
	}

	counters.hedgesLaunched.Add(1)
	counters.shardStreams.Add(1)
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	qh := newQueue()
	go pullInto(hctx, w, req, qh)

	// Election: poll both queues; first decision wins. An error is only
	// a decision once the other stream has also failed (a failed primary
	// with a healthy hedge is exactly the case hedging exists for).
	var perr, herr error
	pFailed, hFailed := false, false
	for {
		if !pFailed {
			if it, ok, done, err := qp.tryPop(); ok || done {
				if !ok && done && err != nil {
					pFailed, perr = true, err
				} else {
					hcancel()
					first(it, ok, out)
					return drain(ctx, qp, out)
				}
			}
		}
		if !hFailed {
			if it, ok, done, err := qh.tryPop(); ok || done {
				if !ok && done && err != nil {
					hFailed, herr = true, err
				} else {
					pcancel()
					counters.hedgeWins.Add(1)
					first(it, ok, out)
					return drain(ctx, qh, out)
				}
			}
		}
		if pFailed && hFailed {
			return perr
		}
		if pFailed && herr == nil {
			// Only the hedge is live: block on it directly.
			it, ok, err := qh.pop(ctx)
			if err != nil {
				return perr // report the primary's failure, not a relayed cancel
			}
			pcancel()
			counters.hedgeWins.Add(1)
			first(it, ok, out)
			return drain(ctx, qh, out)
		}
		if hFailed && perr == nil {
			it, ok, err := qp.pop(ctx)
			if err != nil {
				return err
			}
			first(it, ok, out)
			return drain(ctx, qp, out)
		}
		select {
		case <-qp.signal:
		case <-qh.signal:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// first pushes the elected stream's first observation (an item, or
// nothing for a clean end).
func first(it Item, ok bool, out *queue) {
	if ok {
		out.push(it)
	}
}

// drain pumps the rest of the winner's queue into out.
func drain(ctx context.Context, from, to *queue) error {
	for {
		it, ok, err := from.pop(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		to.push(it)
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// rootErr is a first-writer-wins error slot shared between the fan-out
// goroutine and the cursor.
type rootErr struct {
	mu  sync.Mutex
	err error
}

func (r *rootErr) set(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *rootErr) get() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
