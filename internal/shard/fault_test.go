package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xquec/internal/segment"
	"xquec/internal/shard"
	"xquec/internal/storage"
)

// The coordinator fault suite runs on both topologies: shard sets, and
// a segment set's view (one worker per segment, rank = segment index).
// It lives in an external test package because the segment package
// imports this one.

// faultQuery is scatterable and returns enough items that every member
// contributes at the counts under test.
const faultQuery = `FOR $p IN document("auction.xml")/site/people/person RETURN $p/name/text()`

// faultInput is one partitioned corpus under test and the whole-corpus
// answer to faultQuery.
type faultInput struct {
	name string
	set  *shard.Set
	want string
}

func buildSet(t *testing.T, src []byte, shards int) *shard.Set {
	t.Helper()
	set, err := shard.Build(src, shards, storage.LoadOptions{})
	if err != nil {
		t.Fatalf("build %d shards: %v", shards, err)
	}
	return set
}

// segmentDocs are three XMark documents sharing the <site> root: the
// base and two appends of a segment set.
func segmentDocs() [][]byte {
	docs := make([][]byte, 3)
	for i := range docs {
		docs[i] = xmarkDocSeed(0.02, int64(41+i))
	}
	return docs
}

// buildSegments grows a segment set from docs: the first is the base,
// each later one an append segment.
func buildSegments(t *testing.T, docs [][]byte) *segment.Set {
	t.Helper()
	st, err := storage.Load(docs[0], storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := segment.NewBase(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) > 1 {
		if set, err = set.Append(docs[1:], storage.LoadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

// faultInputs returns shard sets of the given sizes over one XMark
// document, plus a three-segment set.
func faultInputs(t *testing.T, shardCounts ...int) []faultInput {
	t.Helper()
	src := xmarkDoc(t)
	want := unshardedXML(t, src, faultQuery)
	var out []faultInput
	for _, n := range shardCounts {
		out = append(out, faultInput{name: fmt.Sprintf("shards=%d", n), set: buildSet(t, src, n), want: want})
	}
	docs := segmentDocs()
	concat, err := segment.Concat(docs...)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, faultInput{
		name: "segments=3",
		set:  buildSegments(t, docs).View(),
		want: unshardedXML(t, concat, faultQuery),
	})
	return out
}

func scatterXML(t *testing.T, c *shard.Coordinator, ctx context.Context, query string, opts shard.Options) (string, *shard.Cursor) {
	t.Helper()
	cur, err := c.Scatter(ctx, query, opts)
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	var sb strings.Builder
	if _, err := cur.WriteXML(&sb); err != nil {
		cur.Close()
		t.Fatalf("merge: %v", err)
	}
	return sb.String(), cur
}

// --- fault-injection worker wrappers -------------------------------

// jitterWorker delays every stream step by a random few hundred
// microseconds, shuffling the interleaving of shard goroutines so the
// race detector and the ordering assertions see many schedules.
type jitterWorker struct {
	shard.Worker
	seed int64
}

func (w *jitterWorker) Query(ctx context.Context, req shard.Request) (shard.Stream, error) {
	st, err := w.Worker.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &jitterStream{inner: st, rnd: rand.New(rand.NewSource(w.seed))}, nil
}

type jitterStream struct {
	inner shard.Stream
	rnd   *rand.Rand
}

func (s *jitterStream) Next() (shard.Item, bool, error) {
	time.Sleep(time.Duration(s.rnd.Intn(300)) * time.Microsecond)
	return s.inner.Next()
}

func (s *jitterStream) Close() error { return s.inner.Close() }

// downWorker fails at dispatch — the shard never produces a stream.
type downWorker struct{ shard int }

func (w *downWorker) Shard() int { return w.shard }
func (w *downWorker) Query(context.Context, shard.Request) (shard.Stream, error) {
	return nil, errors.New("injected: shard store corrupt")
}

// truncWorker delivers its first `after` items, then fails mid-stream.
type truncWorker struct {
	shard.Worker
	after int
}

func (w *truncWorker) Query(ctx context.Context, req shard.Request) (shard.Stream, error) {
	st, err := w.Worker.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &truncStream{inner: st, left: w.after}, nil
}

type truncStream struct {
	inner shard.Stream
	left  int
}

func (s *truncStream) Next() (shard.Item, bool, error) {
	if s.left == 0 {
		return shard.Item{}, false, errors.New("injected: container decode failed")
	}
	s.left--
	return s.inner.Next()
}

func (s *truncStream) Close() error { return s.inner.Close() }

// prefixWorker delivers its first `n` items then ends cleanly; with
// n=0 it models an absent shard. Used to compute the expected merge
// when a shard fails after delivering a prefix (the partial-results
// policy keeps delivered items and drops only the remainder).
type prefixWorker struct {
	shard.Worker
	n int
}

func (w *prefixWorker) Query(ctx context.Context, req shard.Request) (shard.Stream, error) {
	if w.n == 0 {
		return emptyStream{}, nil
	}
	st, err := w.Worker.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &prefixStream{inner: st, left: w.n}, nil
}

type prefixStream struct {
	inner shard.Stream
	left  int
}

func (s *prefixStream) Next() (shard.Item, bool, error) {
	if s.left == 0 {
		return shard.Item{}, false, nil
	}
	s.left--
	return s.inner.Next()
}

func (s *prefixStream) Close() error { return s.inner.Close() }

type emptyStream struct{}

func (emptyStream) Next() (shard.Item, bool, error) { return shard.Item{}, false, nil }
func (emptyStream) Close() error                    { return nil }

// stallWorker blocks its first dispatch until cancelled; every later
// dispatch (the hedge) evaluates normally. This is the straggler the
// hedging policy exists for.
type stallWorker struct {
	shard.Worker
	calls atomic.Int32
}

func (w *stallWorker) Query(ctx context.Context, req shard.Request) (shard.Stream, error) {
	if w.calls.Add(1) == 1 {
		return &stallStream{ctx: ctx}, nil
	}
	return w.Worker.Query(ctx, req)
}

type stallStream struct{ ctx context.Context }

func (s *stallStream) Next() (shard.Item, bool, error) {
	<-s.ctx.Done()
	return shard.Item{}, false, s.ctx.Err()
}

func (s *stallStream) Close() error { return nil }

// slowWorker sleeps before every item, long enough that a short
// per-request deadline expires mid-stream.
type slowWorker struct {
	shard.Worker
	delay time.Duration
}

func (w *slowWorker) Query(ctx context.Context, req shard.Request) (shard.Stream, error) {
	st, err := w.Worker.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &slowStream{inner: st, ctx: ctx, delay: w.delay}, nil
}

type slowStream struct {
	inner shard.Stream
	ctx   context.Context
	delay time.Duration
}

func (s *slowStream) Next() (shard.Item, bool, error) {
	select {
	case <-s.ctx.Done():
		return shard.Item{}, false, s.ctx.Err()
	case <-time.After(s.delay):
	}
	return s.inner.Next()
}

func (s *slowStream) Close() error { return s.inner.Close() }

// --- tests ---------------------------------------------------------

// TestScatterRandomizedScheduling runs the scatter under randomly
// jittered member streams across several rounds, shard counts and a
// segment set: the merged output must be byte-identical to the
// whole-corpus evaluation no matter how the member goroutines
// interleave. Run with -race.
func TestScatterRandomizedScheduling(t *testing.T) {
	for _, in := range faultInputs(t, 2, 4, 8) {
		base := in.set.Workers()
		n := len(base)
		for round := 0; round < 3; round++ {
			workers := make([]shard.Worker, n)
			for i := range base {
				workers[i] = &jitterWorker{Worker: base[i], seed: int64(n*100 + round*10 + i)}
			}
			c := shard.NewCoordinatorWorkers(in.set, workers)
			got, cur := scatterXML(t, c, context.Background(), faultQuery, shard.Options{})
			cur.Close()
			if got != in.want {
				t.Fatalf("%s round=%d: jittered scatter diverged", in.name, round)
			}
		}
	}
}

// expectedWithPrefix computes the merge where member `skip` delivers
// only its first `n` items then vanishes — what the partial-results
// policy should return when that member fails after n items.
func expectedWithPrefix(t *testing.T, set *shard.Set, skip, n int) string {
	t.Helper()
	base := set.Workers()
	workers := make([]shard.Worker, len(base))
	copy(workers, base)
	workers[skip] = &prefixWorker{Worker: base[skip], n: n}
	got, cur := scatterXML(t, shard.NewCoordinatorWorkers(set, workers), context.Background(), faultQuery, shard.Options{})
	cur.Close()
	return got
}

// TestScatterPartialPolicy injects a per-member failure (dispatch-time
// and mid-stream) and asserts both sides of the policy: fail-fast
// surfaces the member's error; partial returns exactly the healthy
// members' merge and flags the cursor.
func TestScatterPartialPolicy(t *testing.T) {
	for _, in := range faultInputs(t, 4) {
		set := in.set
		base := set.Workers()

		inject := func(name string, delivered int, mk func(i int) shard.Worker) {
			for _, failShard := range []int{0, 2} {
				workers := make([]shard.Worker, len(base))
				copy(workers, base)
				workers[failShard] = mk(failShard)
				c := shard.NewCoordinatorWorkers(set, workers)

				// Fail-fast: the injected error must reach the caller.
				cur, err := c.Scatter(context.Background(), faultQuery, shard.Options{})
				if err == nil {
					var sb strings.Builder
					_, err = cur.WriteXML(&sb)
					cur.Close()
				}
				if err == nil || !strings.Contains(err.Error(), "injected") {
					t.Fatalf("%s %s member=%d fail-fast: err=%v, want injected failure", in.name, name, failShard, err)
				}

				// Partial: healthy members only, cursor flagged.
				before := shard.Snapshot().PartialResults
				got, cur2 := scatterXML(t, c, context.Background(), faultQuery, shard.Options{Partial: true})
				if !cur2.Partial() {
					t.Fatalf("%s %s member=%d: partial cursor not flagged", in.name, name, failShard)
				}
				cur2.Close()
				if want := expectedWithPrefix(t, set, failShard, delivered); got != want {
					t.Fatalf("%s %s member=%d partial: got %d bytes, want %d (healthy-member merge)",
						in.name, name, failShard, len(got), len(want))
				}
				if after := shard.Snapshot().PartialResults; after != before+1 {
					t.Fatalf("%s %s member=%d: partialResults counter %d -> %d, want +1", in.name, name, failShard, before, after)
				}
			}
		}

		inject("dispatch", 0, func(i int) shard.Worker { return &downWorker{shard: i} })
		inject("midstream", 1, func(i int) shard.Worker { return &truncWorker{Worker: base[i], after: 1} })
	}
}

// TestScatterHedging stalls one member's first dispatch forever: with
// hedging off the query hangs (bounded here by a deadline); with a
// short HedgeAfter the re-dispatched stream answers and the output is
// still byte-identical to the whole-corpus evaluation.
func TestScatterHedging(t *testing.T) {
	for _, in := range faultInputs(t, 4) {
		base := in.set.Workers()
		workers := make([]shard.Worker, len(base))
		copy(workers, base)
		stalled := &stallWorker{Worker: base[1]}
		workers[1] = stalled
		c := shard.NewCoordinatorWorkers(in.set, workers)

		s0 := shard.Snapshot()
		got, cur := scatterXML(t, c, context.Background(), faultQuery, shard.Options{HedgeAfter: 5 * time.Millisecond})
		cur.Close()
		if got != in.want {
			t.Fatalf("%s: hedged scatter diverged from whole-corpus result", in.name)
		}
		s1 := shard.Snapshot()
		if s1.HedgesLaunched <= s0.HedgesLaunched {
			t.Fatalf("%s: hedgesLaunched did not advance (%d -> %d)", in.name, s0.HedgesLaunched, s1.HedgesLaunched)
		}
		if s1.HedgeWins <= s0.HedgeWins {
			t.Fatalf("%s: hedgeWins did not advance (%d -> %d)", in.name, s0.HedgeWins, s1.HedgeWins)
		}
		if n := stalled.calls.Load(); n < 2 {
			t.Fatalf("%s: stalled worker dispatched %d times, want >= 2 (primary + hedge)", in.name, n)
		}

		// Without hedging the stalled member pins the query until the
		// deadline: this is the failure mode hedging removes, and it must
		// surface as the context error under either policy.
		workers[1] = &stallWorker{Worker: base[1]}
		c = shard.NewCoordinatorWorkers(in.set, workers)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		cur2, err := c.Scatter(ctx, faultQuery, shard.Options{Partial: true})
		if err == nil {
			var sb strings.Builder
			_, err = cur2.WriteXML(&sb)
			cur2.Close()
		}
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: unhedged stall: err=%v, want DeadlineExceeded", in.name, err)
		}
	}
}

// TestScatterDeadlineMidStream expires the request deadline while
// every member is mid-stream: the cursor must fail with the context
// error under both policies (a deadline is never a partial result).
func TestScatterDeadlineMidStream(t *testing.T) {
	for _, in := range faultInputs(t, 4) {
		base := in.set.Workers()
		workers := make([]shard.Worker, len(base))
		for i := range base {
			workers[i] = &slowWorker{Worker: base[i], delay: 20 * time.Millisecond}
		}
		c := shard.NewCoordinatorWorkers(in.set, workers)
		for _, partial := range []bool{false, true} {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			cur, err := c.Scatter(ctx, faultQuery, shard.Options{Partial: partial})
			if err == nil {
				var sb strings.Builder
				_, err = cur.WriteXML(&sb)
				cur.Close()
			}
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s partial=%v: err=%v, want DeadlineExceeded", in.name, partial, err)
			}
		}
	}
}

// TestScatterRankOrder asserts the merge invariant directly: ranks are
// non-decreasing within each member's stream, and items from different
// members never share a rank (shards: rank ≡ shard index mod N by
// routing; segments: rank = segment index).
func TestScatterRankOrder(t *testing.T) {
	for _, in := range faultInputs(t, 4) {
		base := in.set.Workers()

		// Collect each member's rank sequence through the raw worker API.
		var all []uint64
		perMember := make([][]uint64, len(base))
		for i, w := range base {
			st, err := w.Query(context.Background(), shard.Request{Query: faultQuery})
			if err != nil {
				t.Fatalf("%s member %d: %v", in.name, i, err)
			}
			for {
				it, ok, err := st.Next()
				if err != nil {
					t.Fatalf("%s member %d: %v", in.name, i, err)
				}
				if !ok {
					break
				}
				perMember[i] = append(perMember[i], it.Rank)
				all = append(all, it.Rank)
			}
			st.Close()
		}
		for i, ranks := range perMember {
			if !sort.SliceIsSorted(ranks, func(a, b int) bool { return ranks[a] < ranks[b] }) {
				t.Fatalf("%s member %d ranks not sorted: %v", in.name, i, ranks)
			}
		}
		// Cross-member uniqueness (adjacent duplicates within one member
		// are legal: multi-item bindings share a rank).
		seen := map[uint64]int{}
		for i, ranks := range perMember {
			for _, r := range ranks {
				if j, dup := seen[r]; dup && j != i {
					t.Fatalf("%s: rank %d appears in members %d and %d", in.name, r, j, i)
				}
				seen[r] = i
			}
		}
		if len(all) == 0 {
			t.Fatalf("%s: no items", in.name)
		}
	}
}
