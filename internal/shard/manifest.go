// Package shard is the partitioned-repository tier: one logical corpus
// held as N member repositories sharing one name dictionary, described
// by one manifest and answered by one query path.
//
// A set has a kind. A shard set (KindShard) is one document split at a
// subtree boundary by the shard-aware ingest in internal/storage; a
// segment set (KindSegment) is a base document plus append segments
// (internal/segment grows and compacts those). Both kinds share the
// manifest, OpenSet and the crash-safe Save; they differ only in how a
// member's nodes map to global document order and how the corpus is
// reconstructed.
//
// Queries run through a coordinator that compiles once, fans out to
// per-member workers under bounded concurrency, and merges the members'
// ordered partial results through the same k-way heap kernel the
// set-at-a-time MergeUnion operator uses — so a consumer of the merged
// cursor sees exactly the document-order item sequence the single
// repository would produce.
//
// The coordinator/worker boundary is an interface (Worker): the
// in-process implementation evaluates against a local Store on a
// goroutine, but the request/response types are plain data (query text
// in, rank-stamped XML bytes out), so a remote RPC worker can replace
// it without the coordinator changing.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// ManifestFormat identifies a set manifest file.
const ManifestFormat = "xqcp1"

// The manifest formats written before shard and segment sets shared
// one manifest. ParseManifest still reads them.
const (
	legacyShardFormat   = "xqcs1"
	legacySegmentFormat = "xqcg1"
)

// Set kinds.
const (
	KindShard   = "shard"
	KindSegment = "segment"
)

// ManifestExt is the conventional shard-set manifest extension;
// SegmentManifestExt is the segment-set one.
const (
	ManifestExt        = ".xqcs"
	SegmentManifestExt = ".xqcg"
)

// Manifest is the persisted description of a set. It is small JSON on
// purpose: the member repositories carry the data, the manifest records
// the topology — the member files in order, the dictionary hashes that
// guard against mixing members from different builds, and the counters
// that version the set and name its files.
//
// A shard set's routing is implicit in the "roundrobin" policy: the
// k-th partitioned subtree (document order) of shard s has global rank
// k*len(Members)+s, so merge order needs no per-subtree table. A
// segment set's rank is the segment index.
type Manifest struct {
	Format string `json:"format"` // ManifestFormat
	Kind   string `json:"kind"`   // KindShard or KindSegment
	// Members are the member repository file names in member order
	// (segment 0 is the base), relative to the manifest's directory. An
	// in-memory set that was never saved has empty names.
	Members []string `json:"members"`
	// DictHashes is the SHA-256 of each member's name dictionary. Shards
	// share one dictionary; segment i+1's dictionary extends segment i's
	// as a prefix, so the last hash identifies the whole chain.
	DictHashes []string `json:"dict_hashes"`
	// PartitionLevel is the element level whose subtrees are partitioned
	// across members (root = 1); 2 for a segment set.
	PartitionLevel int `json:"partition_level"`
	// OriginalSize is the uncompressed corpus size in bytes.
	OriginalSize int `json:"original_size"`
	// Generation increments on every committed append or compaction; it
	// feeds the topology key so plan caches never serve a plan compiled
	// against a superseded set.
	Generation int `json:"generation"`
	// Sequence is the next member-file number. Save names new members
	// from it upward and never reuses a number, so a new generation's
	// files cannot collide with the files of the one it replaces.
	Sequence int `json:"sequence"`

	// Routing is the shard routing policy; "roundrobin" is the only one
	// defined. Shard sets only.
	Routing string `json:"routing,omitempty"`
	// Subtrees is the total number of partitioned subtrees. Shard sets
	// only.
	Subtrees int `json:"subtrees,omitempty"`
	// SubtreeCounts is the per-shard partitioned subtree count. Shard
	// sets only.
	SubtreeCounts []int `json:"subtree_counts,omitempty"`
	// RootTag is the corpus root element name; every segment's document
	// root carries it. Segment sets only.
	RootTag string `json:"root_tag,omitempty"`
}

// DictionaryHash hashes a name dictionary (order-sensitive,
// length-prefixed so name boundaries cannot alias).
func DictionaryHash(names []string) string {
	h := sha256.New()
	var lenBuf [4]byte
	for _, n := range names {
		lenBuf[0] = byte(len(n))
		lenBuf[1] = byte(len(n) >> 8)
		lenBuf[2] = byte(len(n) >> 16)
		lenBuf[3] = byte(len(n) >> 24)
		h.Write(lenBuf[:])
		h.Write([]byte(n))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MarshalManifest encodes m as indented JSON (manifests are meant to be
// human-inspectable).
func MarshalManifest(m *Manifest) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// ParseManifest decodes and validates a manifest. Legacy xqcs1 (shard)
// and xqcg1 (segment) manifests decode into the same type.
func ParseManifest(data []byte) (*Manifest, error) {
	var w struct {
		Manifest
		// xqcs1 fields.
		Shards   []string `json:"shards"`
		DictHash string   `json:"dict_hash"`
		// xqcg1 fields.
		Segments      []string `json:"segments"`
		OriginalSizes []int    `json:"original_sizes"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("shard: manifest is not valid JSON: %w", err)
	}
	m := &w.Manifest
	switch m.Format {
	case ManifestFormat:
	case legacyShardFormat:
		m.Kind, m.Members = KindShard, w.Shards
		m.DictHashes = slices.Repeat([]string{w.DictHash}, len(w.Shards))
	case legacySegmentFormat:
		m.Kind, m.Members, m.PartitionLevel = KindSegment, w.Segments, 2
		if len(w.OriginalSizes) != len(w.Segments) {
			return nil, fmt.Errorf("shard: %d original sizes for %d segments", len(w.OriginalSizes), len(w.Segments))
		}
		m.OriginalSize = 0
		for _, n := range w.OriginalSizes {
			m.OriginalSize += n
		}
	default:
		return nil, fmt.Errorf("shard: manifest format %q, want %q", m.Format, ManifestFormat)
	}
	m.Format = ManifestFormat
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// validate checks a decoded manifest: member names stay inside the
// manifest's directory and are distinct, the per-member lists line up,
// and each kind's own fields are well-formed.
func (m *Manifest) validate() error {
	n := len(m.Members)
	if n == 0 {
		return fmt.Errorf("shard: manifest lists no members")
	}
	seen := make(map[string]bool, n)
	for _, name := range m.Members {
		if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) || filepath.IsAbs(name) {
			return fmt.Errorf("shard: member name %q is not a file name in the manifest's directory", name)
		}
		if seen[name] {
			return fmt.Errorf("shard: member %q listed twice", name)
		}
		seen[name] = true
	}
	if len(m.DictHashes) != n {
		return fmt.Errorf("shard: %d dictionary hashes for %d members", len(m.DictHashes), n)
	}
	switch m.Kind {
	case KindShard:
		if m.Routing != "roundrobin" {
			return fmt.Errorf("shard: unknown routing policy %q", m.Routing)
		}
		if len(m.SubtreeCounts) != n {
			return fmt.Errorf("shard: %d subtree counts for %d shards", len(m.SubtreeCounts), n)
		}
		if m.PartitionLevel < 2 {
			return fmt.Errorf("shard: partition level %d < 2", m.PartitionLevel)
		}
		for i, h := range m.DictHashes {
			if h != m.DictHashes[0] {
				return fmt.Errorf("shard: shard %d dictionary hash differs from shard 0 (shards share one dictionary)", i)
			}
		}
	case KindSegment:
		if m.RootTag == "" {
			return fmt.Errorf("shard: segment manifest has no root tag")
		}
		if m.PartitionLevel != 2 {
			return fmt.Errorf("shard: segment partition level %d, want 2", m.PartitionLevel)
		}
		if len(m.SubtreeCounts) == 0 {
			m.SubtreeCounts = nil // an empty list marshals away (omitempty)
		}
	default:
		return fmt.Errorf("shard: unknown set kind %q", m.Kind)
	}
	return nil
}

// ReadManifest loads and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseManifest(data)
}

// Member files are named "<base>.<infix>-<number>.xqc", where base is
// the manifest file name without its kind's extension, infix names the
// kind and number comes from Manifest.Sequence.
var memberInfix = map[string]string{KindShard: "shard", KindSegment: "seg"}

// memberFile matches a member file name; the groups are base and infix.
var memberFile = regexp.MustCompile(`^(.*)\.(shard|seg)-[0-9]+\.xqc$`)

func memberName(base, kind string, seq int) string {
	return fmt.Sprintf("%s.%s-%06d.xqc", base, memberInfix[kind], seq)
}

// IsMemberFile reports whether a file name is a set member's (a shard
// or segment repository addressed through its manifest) rather than a
// repository of its own.
func IsMemberFile(name string) bool { return memberFile.MatchString(name) }
