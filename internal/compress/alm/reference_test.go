package alm

import (
	"bytes"
	"fmt"
	"sort"
)

// locate returns the index of the interval containing s, searching only
// the bucket of s's first byte. Retained as the reference kernel; the
// hot paths inline an equivalent search over the flattened index.
func (c *Codec) locate(s []byte) (int, error) {
	lo, hi := int(c.byFirst[s[0]]), int(c.byFirst[int(s[0])+1])
	idx := lo + sort.Search(hi-lo, func(i int) bool {
		return bytes.Compare(c.intervals[lo+i].lo, s) > 0
	}) - 1
	if idx < lo {
		return 0, fmt.Errorf("alm: string %q below interval space", s)
	}
	return idx, nil
}

// EncodeReference is the retained sort.Search-based encoder: the
// differential-test oracle for Encode, not used on hot paths.
func (c *Codec) EncodeReference(dst, value []byte) ([]byte, error) {
	s := value
	for len(s) > 0 {
		idx, err := c.locate(s)
		if err != nil {
			return dst, err
		}
		p := c.intervals[idx].prefix
		if !bytes.HasPrefix(s, p) {
			return dst, fmt.Errorf("alm: internal error: interval %d prefix %q does not prefix %q", idx, p, s)
		}
		if c.codeWidth == 2 {
			dst = append(dst, byte(idx>>8), byte(idx))
		} else {
			dst = append(dst, byte(idx))
		}
		s = s[len(p):]
	}
	return dst, nil
}

// DecodeReference is the retained per-interval-slice decoder: the
// differential-test oracle for Decode, not used on hot paths.
func (c *Codec) DecodeReference(dst, enc []byte) ([]byte, error) {
	if len(enc)%c.codeWidth != 0 {
		return dst, fmt.Errorf("alm: encoded length %d not a multiple of code width %d", len(enc), c.codeWidth)
	}
	for i := 0; i < len(enc); i += c.codeWidth {
		var idx int
		if c.codeWidth == 2 {
			idx = int(enc[i])<<8 | int(enc[i+1])
		} else {
			idx = int(enc[i])
		}
		if idx >= len(c.intervals) {
			return dst, fmt.Errorf("alm: code %d out of range (%d intervals)", idx, len(c.intervals))
		}
		dst = append(dst, c.intervals[idx].prefix...)
	}
	return dst, nil
}
