// Package segment is the mutable-repository layer: an LSM-flavored
// segment model that turns the paper's write-once compressed repository
// into an appendable one. A segment set is an immutable base segment
// plus zero or more append segments — each a complete compressed
// repository of one document — sharing one interned name dictionary
// (every later segment's dictionary extends the previous one as a
// prefix). The logical corpus is the concatenation: the base document's
// root with every segment's root children spliced under it in segment
// order.
//
// Sets are immutable values: an append or a compaction builds a NEW set
// (new manifest generation, new store slice) and the owner swaps it in
// atomically. Readers holding the old set keep a consistent snapshot —
// nothing in a set is ever written after construction — which is what
// lets a server compact in the background under active streaming
// queries.
//
// Queries do not run here: View exposes a set as a shard.Set over its
// stores (partition level 2, rank = segment index), and the shard
// package's analyzer, coordinator and merge cursor answer it exactly as
// they answer a shard set — scattering provably decomposable queries
// per segment, falling back to a lazily fused whole-corpus store
// otherwise. This package keeps only what is segment-specific: append,
// compaction, the dictionary chain, the xqcg1 manifest, stale-file GC
// and the textual corpus definition (Concat).
package segment

import (
	"encoding/json"
	"fmt"
	"os"
)

// ManifestFormat identifies a segment-set manifest file.
const ManifestFormat = "xqcg1"

// ManifestExt is the conventional segment-set manifest extension.
const ManifestExt = ".xqcg"

// Manifest is the persisted description of a segment set. Like the
// shard-set manifest it is small JSON on purpose: the segment
// repositories carry the data, the manifest records the topology — the
// segment files in order, the dictionary chain that guards against
// mixing segments from different lineages, and the generation counter
// that makes every swap observable to topology-keyed plan caches.
type Manifest struct {
	Format string `json:"format"` // ManifestFormat
	// RootTag is the corpus root element name; every segment's document
	// root must carry it.
	RootTag string `json:"root_tag"`
	// Segments are the segment repository file names in segment order
	// (index 0 is the base), relative to the manifest's directory.
	Segments []string `json:"segments"`
	// DictHashes is the SHA-256 of each segment's name dictionary, in
	// segment order. Segment i+1's dictionary must extend segment i's as
	// a prefix (shared interning), so the last hash identifies the whole
	// chain.
	DictHashes []string `json:"dict_hashes"`
	// OriginalSizes is the per-segment uncompressed document size.
	OriginalSizes []int `json:"original_sizes"`
	// Generation increments on every committed append or compaction; it
	// feeds the topology key so plan caches never serve a plan compiled
	// against a superseded set.
	Generation int `json:"generation"`
	// Sequence is the monotone segment-naming counter: it never resets,
	// so a compacted set's files can never collide with files from the
	// set it replaced.
	Sequence int `json:"sequence"`
}

// MarshalManifest encodes m as indented JSON (manifests are meant to be
// human-inspectable).
func MarshalManifest(m *Manifest) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// ParseManifest decodes and validates a manifest.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("segment: manifest is not valid JSON: %w", err)
	}
	if m.Format != ManifestFormat {
		return nil, fmt.Errorf("segment: manifest format %q, want %q", m.Format, ManifestFormat)
	}
	if len(m.Segments) == 0 {
		return nil, fmt.Errorf("segment: manifest lists no segments")
	}
	if m.RootTag == "" {
		return nil, fmt.Errorf("segment: manifest has no root tag")
	}
	if len(m.DictHashes) != len(m.Segments) {
		return nil, fmt.Errorf("segment: %d dictionary hashes for %d segments", len(m.DictHashes), len(m.Segments))
	}
	if len(m.OriginalSizes) != len(m.Segments) {
		return nil, fmt.Errorf("segment: %d original sizes for %d segments", len(m.OriginalSizes), len(m.Segments))
	}
	return &m, nil
}

// ReadManifest loads and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseManifest(data)
}
