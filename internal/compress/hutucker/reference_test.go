package hutucker

import (
	"fmt"

	"xquec/internal/compress/bitio"
)

// DecodeReference is the retained bit-at-a-time tree-walk decoder: the
// differential-test oracle for Decode, not used on hot paths.
func (c *Codec) DecodeReference(dst, enc []byte) ([]byte, error) {
	var r bitio.Reader
	r.Init(enc, -1)
	for {
		n := c.root
		for n.symbol < 0 {
			b, err := r.ReadBit()
			if err != nil {
				return dst, fmt.Errorf("hutucker: truncated value: %w", err)
			}
			if b == 0 {
				n = n.left
			} else {
				n = n.right
			}
		}
		if n.symbol == 0 { // EOS
			return dst, nil
		}
		dst = append(dst, byte(n.symbol-1))
	}
}
