// Package alm implements the ALM (Antoshenkov–Lomet–Murray)
// order-preserving dictionary compression scheme that XQueC uses for
// string containers involved in inequality predicates (§2.1, Fig. 2).
//
// The source model is a set of disjoint *partitioning intervals* covering
// the space of byte strings. Each interval carries a prefix token and a
// fixed-width code; codes are assigned in interval order. Encoding a
// string repeatedly locates the interval containing the (remaining)
// string, emits its code, and strips its prefix. Because one token may
// appear in several intervals with different codes (the "the" → c / e
// trick of the original paper), the scheme avoids the prefix-property
// pitfall of naive dictionary encodings and guarantees
//
//	bytes.Compare(Encode(x), Encode(y)) == bytes.Compare(x, y)
//
// so equality and inequality predicates — and therefore merge joins and
// range scans — run directly on compressed values.
package alm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"xquec/internal/compress"
)

func init() {
	compress.RegisterLoader("alm", func(data []byte) (compress.Codec, error) {
		return loadModel(data)
	})
}

// DefaultMaxTokens bounds the mined dictionary size (multi-byte tokens;
// the 256 single-byte tokens are always present).
const DefaultMaxTokens = 8192

// interval is one partitioning interval [lo, next.lo) with its prefix
// token. Intervals tile ["\x00", +inf) contiguously, so upper bounds are
// implicit.
type interval struct {
	lo     []byte
	prefix []byte
}

// Codec is a trained ALM coder. Safe for concurrent use.
type Codec struct {
	intervals []interval
	// tokens are the mined multi-byte dictionary tokens, sorted; the
	// interval partition is rebuilt deterministically from them, so the
	// persisted source model is just this list (front-coded).
	tokens    [][]byte
	codeWidth int // bytes per code: 1 or 2
	modelSize int
	// byFirst[b] is the index of the first interval whose lower bound
	// starts with byte b; byFirst[256] = len(intervals). Because the 256
	// single-byte tokens partition the top level, an interval never
	// spans first bytes, so locating a string only searches one bucket.
	byFirst [257]int32

	// Flattened interval index, the encode/decode hot-path layout: the
	// interval lower bounds and prefixes live in two concatenated blobs
	// with [offset, offset] pairs, so the kernels touch contiguous
	// memory instead of chasing one heap slice per interval. Interval i
	// has lower bound loBlob[loOff[i]:loOff[i+1]] and prefix
	// prefBlob[prefOff[i]:prefOff[i+1]].
	loBlob   []byte
	loOff    []int32
	prefBlob []byte
	prefOff  []int32

	// Second-level encode index: for a bucket b holding more than one
	// interval, sec[secOff[b]+c .. secOff[b]+c+1] brackets the intervals
	// whose lower bound starts with the two bytes [b, c] (every bound in
	// a bucket past the leading single-byte one has length ≥ 2 by
	// construction). The encode automaton uses it to narrow the binary
	// search to one two-byte prefix group and to skip the shared two
	// bytes in each comparison. secOff[b] < 0 marks singleton buckets.
	secOff [256]int32
	sec    []int32
	// loKey[i] is the zero-padded big-endian uint64 of interval i's
	// bound suffix past the shared two-byte group prefix. Search probes
	// compare keys; only ties (equal first 8 suffix bytes, or embedded
	// NULs at the suffix boundary) fall back to a full bytes.Compare.
	loKey []uint64
}

// beKey returns the first 8 bytes of b as a zero-padded big-endian
// word. Key order agrees with bytes.Compare order except on ties,
// which callers must resolve with a full comparison.
func beKey(b []byte) uint64 {
	var v uint64
	n := len(b)
	if n >= 8 {
		return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
			uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	}
	for i := 0; i < n; i++ {
		v |= uint64(b[i]) << uint(56-8*i)
	}
	return v
}

// Trainer builds ALM codecs from sample values.
type Trainer struct {
	// MaxTokens caps the mined dictionary; 0 means DefaultMaxTokens.
	MaxTokens int
}

// Name implements compress.Trainer.
func (Trainer) Name() string { return "alm" }

// Train implements compress.Trainer.
func (t Trainer) Train(values [][]byte) (compress.Codec, error) {
	max := t.MaxTokens
	if max == 0 {
		max = DefaultMaxTokens
	}
	return Train(values, max)
}

// Train mines a token dictionary from the sample values and builds the
// partitioning-interval codec.
func Train(values [][]byte, maxTokens int) (*Codec, error) {
	tokens := mineTokens(values, maxTokens)
	return build(tokens)
}

// build constructs the interval partition from a token set. The 256
// single-byte tokens are added unconditionally so that every byte string
// is encodable.
func build(extra [][]byte) (*Codec, error) {
	seen := make(map[string]bool, len(extra)+256)
	tokens := make([][]byte, 0, len(extra)+256)
	for b := 0; b < 256; b++ {
		t := []byte{byte(b)}
		seen[string(t)] = true
		tokens = append(tokens, t)
	}
	for _, t := range extra {
		if len(t) < 2 || seen[string(t)] {
			continue
		}
		seen[string(t)] = true
		tokens = append(tokens, append([]byte(nil), t...))
	}
	sort.Slice(tokens, func(i, j int) bool { return bytes.Compare(tokens[i], tokens[j]) < 0 })
	var mined [][]byte
	for _, t := range tokens {
		if len(t) >= 2 {
			mined = append(mined, t)
		}
	}

	// Build the prefix forest: in lexicographic order a token's parent is
	// the nearest preceding token that prefixes it.
	type node struct {
		tok      []byte
		children []int
	}
	nodes := make([]node, len(tokens))
	roots := make([]int, 0, 256)
	var stack []int
	for i, t := range tokens {
		nodes[i].tok = t
		for len(stack) > 0 && !bytes.HasPrefix(t, nodes[stack[len(stack)-1]].tok) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			roots = append(roots, i)
		} else {
			p := stack[len(stack)-1]
			nodes[p].children = append(nodes[p].children, i)
		}
		stack = append(stack, i)
	}

	c := &Codec{tokens: mined}
	// emit recursively: for each token range [tok, succ(tok)), interleave
	// gap intervals (carrying the parent prefix) with child sub-ranges.
	var emit func(idx int) error
	emit = func(idx int) error {
		n := nodes[idx]
		cur := n.tok
		for _, ch := range n.children {
			chLo := nodes[ch].tok
			if bytes.Compare(cur, chLo) < 0 {
				c.intervals = append(c.intervals, interval{lo: cur, prefix: n.tok})
			}
			if err := emit(ch); err != nil {
				return err
			}
			cur = succ(nodes[ch].tok)
			if cur == nil {
				return nil // child range extends to +inf
			}
		}
		hi := succ(n.tok)
		if hi == nil || bytes.Compare(cur, hi) < 0 {
			c.intervals = append(c.intervals, interval{lo: cur, prefix: n.tok})
		}
		return nil
	}
	for _, r := range roots {
		if err := emit(r); err != nil {
			return nil, err
		}
	}
	if len(c.intervals) == 0 {
		return nil, errors.New("alm: empty interval partition")
	}
	if len(c.intervals) <= 256 {
		c.codeWidth = 1
	} else if len(c.intervals) <= 1<<16 {
		c.codeWidth = 2
	} else {
		return nil, fmt.Errorf("alm: %d intervals exceed the 2-byte code space", len(c.intervals))
	}
	c.buildFirstIndex()
	c.flatten()
	c.modelSize = len(c.AppendModel(nil))
	return c, nil
}

func (c *Codec) buildFirstIndex() {
	i := 0
	for b := 0; b < 256; b++ {
		c.byFirst[b] = int32(i)
		for i < len(c.intervals) && c.intervals[i].lo[0] == byte(b) {
			i++
		}
	}
	c.byFirst[256] = int32(len(c.intervals))
}

// flatten materializes the interval bounds and prefixes as contiguous
// blobs (see the Codec field comments).
func (c *Codec) flatten() {
	c.loOff = make([]int32, len(c.intervals)+1)
	c.prefOff = make([]int32, len(c.intervals)+1)
	loBytes, prefBytes := 0, 0
	for _, iv := range c.intervals {
		loBytes += len(iv.lo)
		prefBytes += len(iv.prefix)
	}
	c.loBlob = make([]byte, 0, loBytes)
	c.prefBlob = make([]byte, 0, prefBytes)
	for i, iv := range c.intervals {
		c.loOff[i] = int32(len(c.loBlob))
		c.loBlob = append(c.loBlob, iv.lo...)
		c.prefOff[i] = int32(len(c.prefBlob))
		c.prefBlob = append(c.prefBlob, iv.prefix...)
	}
	c.loOff[len(c.intervals)] = int32(len(c.loBlob))
	c.prefOff[len(c.intervals)] = int32(len(c.prefBlob))

	c.loKey = make([]uint64, len(c.intervals))
	for i, iv := range c.intervals {
		if len(iv.lo) >= 2 {
			c.loKey[i] = beKey(iv.lo[2:])
		}
	}

	// Second-level index over multi-interval buckets.
	c.sec = c.sec[:0]
	for b := 0; b < 256; b++ {
		lo, hi := int(c.byFirst[b]), int(c.byFirst[b+1])
		if hi-lo <= 1 {
			c.secOff[b] = -1
			continue
		}
		base := len(c.sec)
		c.secOff[b] = int32(base)
		// Bucket bounds past the first are sorted by their second byte;
		// walk them once, recording where each second-byte group starts.
		i := lo + 1
		for cc := 0; cc < 256; cc++ {
			c.sec = append(c.sec, int32(i))
			for i < hi && c.intervals[i].lo[1] == byte(cc) {
				i++
			}
		}
		c.sec = append(c.sec, int32(hi))
	}
}

// succ returns the smallest byte string greater than every string with
// prefix t, or nil for +inf.
func succ(t []byte) []byte {
	for i := len(t) - 1; i >= 0; i-- {
		if t[i] != 0xff {
			s := make([]byte, i+1)
			copy(s, t[:i+1])
			s[i]++
			return s
		}
	}
	return nil
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return "alm" }

// Props implements compress.Codec. Per the paper: eq and ineq in the
// compressed domain, no wildcard (prefix) matching.
func (c *Codec) Props() compress.Properties {
	return compress.Properties{Eq: true, Ineq: true, Wild: false, OrderPreserving: true}
}

// ModelSize implements compress.Codec.
func (c *Codec) ModelSize() int { return c.modelSize }

// DecodeCost implements compress.Codec. ALM emits multi-byte tokens per
// dictionary step, so it decompresses faster than bit-level entropy
// coders (the property §2.1 highlights). Measured vs huffman = 1.0 in
// the BENCH_codec.json run (529.23 vs 154.20 MB/s).
func (c *Codec) DecodeCost() float64 { return 0.291 }

// Encode implements compress.Codec. The encoded form is the fixed-width
// code sequence of the intervals visited while consuming the value.
//
// The kernel is an automaton over the flattened interval index: the
// first byte selects a bucket; a bucket with one interval emits
// immediately (the byte has no mined tokens); otherwise a closure-free
// binary search over the contiguous lower-bound blob finds the last
// interval at or below the remaining string. The located interval's
// prefix is guaranteed to prefix s by the partition construction (see
// build), so the consumed length comes straight from the offset table.
func (c *Codec) Encode(dst, value []byte) ([]byte, error) {
	s := value
	for len(s) > 0 {
		b := s[0]
		// Default: the bucket's leading interval, whose bound is the
		// single byte [b]. It is the answer for singleton buckets and
		// for one-byte remainders (every other bound in the bucket is
		// longer, hence greater).
		idx := int(c.byFirst[b])
		if base := c.secOff[b]; base >= 0 && len(s) >= 2 {
			lo := int(c.sec[int(base)+int(s[1])])
			hi := int(c.sec[int(base)+int(s[1])+1])
			// The group's bounds all start with s[:2]; compare the
			// remainders to find the last bound ≤ s. An empty group or
			// an all-greater group resolves to the interval just before
			// it, whose bound is < [b, s[1]] ≤ s.
			s2 := s[2:]
			kS := beKey(s2)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				var greater bool
				if kMid := c.loKey[mid]; kMid != kS {
					greater = kMid > kS
				} else {
					greater = bytes.Compare(c.loBlob[c.loOff[mid]+2:c.loOff[mid+1]], s2) > 0
				}
				if greater {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			idx = lo - 1
		}
		if c.codeWidth == 2 {
			dst = append(dst, byte(idx>>8), byte(idx))
		} else {
			dst = append(dst, byte(idx))
		}
		s = s[c.prefOff[idx+1]-c.prefOff[idx]:]
	}
	return dst, nil
}

// Decode implements compress.Codec, copying each code's prefix out of
// the contiguous prefix blob.
func (c *Codec) Decode(dst, enc []byte) ([]byte, error) {
	if c.codeWidth == 1 {
		n := len(c.intervals)
		for _, b := range enc {
			idx := int(b)
			if idx >= n {
				return dst, fmt.Errorf("alm: code %d out of range (%d intervals)", idx, n)
			}
			dst = append(dst, c.prefBlob[c.prefOff[idx]:c.prefOff[idx+1]]...)
		}
		return dst, nil
	}
	if len(enc)%2 != 0 {
		return dst, fmt.Errorf("alm: encoded length %d not a multiple of code width %d", len(enc), c.codeWidth)
	}
	n := len(c.intervals)
	for i := 0; i < len(enc); i += 2 {
		idx := int(enc[i])<<8 | int(enc[i+1])
		if idx >= n {
			return dst, fmt.Errorf("alm: code %d out of range (%d intervals)", idx, n)
		}
		dst = append(dst, c.prefBlob[c.prefOff[idx]:c.prefOff[idx+1]]...)
	}
	return dst, nil
}

// AppendModel implements compress.Codec. The interval partition is a
// deterministic function of the token set, so the model is just the
// sorted mined tokens, front-coded (each entry stores the length of the
// prefix shared with its predecessor plus the new suffix).
func (c *Codec) AppendModel(dst []byte) []byte {
	dst = compress.AppendUvarint(dst, uint64(len(c.tokens)))
	var prev []byte
	for _, t := range c.tokens {
		lcp := 0
		for lcp < len(prev) && lcp < len(t) && prev[lcp] == t[lcp] {
			lcp++
		}
		dst = compress.AppendUvarint(dst, uint64(lcp))
		dst = compress.AppendBytes(dst, t[lcp:])
		prev = t
	}
	return dst
}

func loadModel(data []byte) (*Codec, error) {
	count, n, err := compress.ReadUvarint(data)
	if err != nil {
		return nil, err
	}
	data = data[n:]
	tokens := make([][]byte, 0, count)
	var prev []byte
	for i := uint64(0); i < count; i++ {
		lcp, n, err := compress.ReadUvarint(data)
		if err != nil {
			return nil, err
		}
		data = data[n:]
		suffix, n, err := compress.ReadBytes(data)
		if err != nil {
			return nil, err
		}
		data = data[n:]
		if int(lcp) > len(prev) {
			return nil, errors.New("alm: front-coded token has bad prefix length")
		}
		t := make([]byte, 0, int(lcp)+len(suffix))
		t = append(t, prev[:lcp]...)
		t = append(t, suffix...)
		if len(t) < 2 {
			return nil, errors.New("alm: persisted token shorter than 2 bytes")
		}
		if prev != nil && bytes.Compare(prev, t) >= 0 {
			return nil, errors.New("alm: persisted tokens not strictly increasing")
		}
		tokens = append(tokens, t)
		prev = t
	}
	if len(data) != 0 {
		return nil, errors.New("alm: trailing bytes in model")
	}
	return build(tokens)
}
