package shard

import (
	"context"
	"io"

	"xquec/internal/algebra"
)

// srcItem is one shard item inside the merge heap; its rank is the
// heap key, so the payload is just the source queue (for refill) and
// the serialized bytes.
type srcItem struct {
	qi  int
	xml []byte
}

// Cursor is the coordinator's merged result stream: a k-way merge over
// the member queues by global rank, pulled one item per Next. It is a
// single-consumer cursor with sticky errors, mirroring engine.Result's
// contract so the public Results API can wrap either interchangeably.
//
// Ordering: within a queue ranks are non-decreasing and items of equal
// rank stay adjacent (the heap's strict-< sift never reorders ties,
// and ties cannot occur across queues — Set.rank never ties
// across members), so the merged stream is exactly the whole-corpus
// document-order result.
type Cursor struct {
	queues  []*queue
	ctx     context.Context
	cancel  context.CancelFunc
	partial bool // partial-results policy (vs fail-fast)

	root rootErr // fan-out failure, set before the sweep-close

	primed     bool
	err        error // sticky terminal error
	heap       algebra.KWayHeap[srcItem]
	served     int
	wasPartial bool
	counted    bool
	buf        [][]byte // Len-materialized remainder
	bufPos     int
}

// noteRootErr records the fan-out's root cause; the merge reports it
// in preference to the per-queue sweep errors derived from it.
func (c *Cursor) noteRootErr(err error) { c.root.set(err) }

// Prime forces the first item of every shard (or its clean end), so
// eager failures — a parse error on a worker, an expired deadline, a
// corrupt shard under fail-fast — surface at call time rather than on
// the first Next.
func (c *Cursor) Prime() error { return c.init() }

func (c *Cursor) init() error {
	if c.primed {
		return c.err
	}
	c.primed = true
	for qi := range c.queues {
		rank, it, ok, err := c.advance(qi)
		if err != nil {
			c.fail(err)
			return c.err
		}
		if ok {
			c.heap.Push(rank, it)
		}
	}
	c.heap.Init()
	return nil
}

// advance pulls the next item from queue qi. ok=false means that shard
// is exhausted — cleanly, or absorbed under the partial-results policy
// (which never absorbs context expiry, and never outruns a recorded
// fan-out failure).
func (c *Cursor) advance(qi int) (uint64, srcItem, bool, error) {
	it, ok, err := c.queues[qi].pop(c.ctx)
	if err != nil {
		if re := c.root.get(); re != nil {
			return 0, srcItem{}, false, re
		}
		if c.partial && !isCtxErr(err) {
			c.wasPartial = true
			return 0, srcItem{}, false, nil
		}
		return 0, srcItem{}, false, err
	}
	if !ok {
		return 0, srcItem{}, false, nil
	}
	return it.Rank, srcItem{qi: qi, xml: it.XML}, true, nil
}

// Next returns the next merged item's serialized XML/text. ok=false
// ends the stream; errors are sticky.
func (c *Cursor) Next() ([]byte, bool, error) {
	if err := c.init(); err != nil {
		return nil, false, err
	}
	if c.err != nil {
		return nil, false, c.err
	}
	if c.buf != nil {
		if c.bufPos < len(c.buf) {
			x := c.buf[c.bufPos]
			c.buf[c.bufPos] = nil
			c.bufPos++
			c.served++
			return x, true, nil
		}
		c.finish()
		return nil, false, nil
	}
	x, ok, err := c.step()
	if err != nil {
		c.fail(err)
		return nil, false, c.err
	}
	if !ok {
		c.finish()
		return nil, false, nil
	}
	c.served++
	return x, true, nil
}

// step performs one heap merge step: take the minimum-rank item, then
// refill its source queue (ReplaceMin when it yields, PopMin when it's
// exhausted).
func (c *Cursor) step() ([]byte, bool, error) {
	if c.heap.Len() == 0 {
		return nil, false, nil
	}
	_, top := c.heap.Min()
	rank, it, ok, err := c.advance(top.qi)
	if err != nil {
		return nil, false, err
	}
	if ok {
		c.heap.ReplaceMin(rank, it)
	} else {
		c.heap.PopMin()
	}
	counters.mergedItems.Add(1)
	return top.xml, true, nil
}

// finish runs once at clean exhaustion: account the partial outcome
// and release the fan-out.
func (c *Cursor) finish() {
	if c.wasPartial && !c.counted {
		c.counted = true
		counters.partialResults.Add(1)
	}
	c.cancel()
}

func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.cancel()
}

// Partial reports whether any shard's results were dropped under the
// partial-results policy. It is definitive only once the cursor is
// exhausted (ok=false from Next) — a still-healthy shard can fail
// later in the stream.
func (c *Cursor) Partial() bool { return c.wasPartial }

// Len returns the total number of result items, forcing the remaining
// merge (items are buffered for later consumption, mirroring
// engine.Result.Len).
func (c *Cursor) Len() int {
	if err := c.init(); err != nil {
		return c.served
	}
	if c.buf == nil && c.err == nil {
		buf := [][]byte{}
		for {
			x, ok, err := c.step()
			if err != nil {
				c.fail(err)
				break
			}
			if !ok {
				break
			}
			buf = append(buf, x)
		}
		c.buf, c.bufPos = buf, 0
	}
	return c.served + len(c.buf) - c.bufPos
}

// WriteXML streams the not-yet-consumed items to w, newline-separated
// with no trailing newline — byte-compatible with engine.Result's
// serialization of the same item sequence.
func (c *Cursor) WriteXML(w io.Writer) (int, error) {
	written := 0
	first := true
	for {
		x, ok, err := c.Next()
		if err != nil {
			return written, err
		}
		if !ok {
			return written, nil
		}
		if !first {
			n, err := io.WriteString(w, "\n")
			written += n
			if err != nil {
				c.fail(err)
				return written, err
			}
		}
		first = false
		n, err := w.Write(x)
		written += n
		if err != nil {
			c.fail(err)
			return written, err
		}
	}
}

// Close cancels the fan-out and discards unconsumed items. Idempotent;
// a Close mid-stream surfaces as context.Canceled on the workers, which
// the coordinator treats as terminal, never partial.
func (c *Cursor) Close() error {
	c.cancel()
	return nil
}
