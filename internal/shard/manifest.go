// Package shard is the scatter-gather serving tier: it turns one
// logical corpus into N shard repositories (built by the shard-aware
// ingest in internal/storage), and answers queries over the set with a
// coordinator that compiles once, fans out to per-shard workers under
// bounded concurrency, and merges the shards' ordered partial results
// through the same k-way heap kernel the set-at-a-time MergeUnion
// operator uses — so a consumer of the merged cursor sees exactly the
// document-order item sequence the unsharded repository would produce.
//
// The analyzer, coordinator and merge are the query path for every
// partitioned repository, not only shard sets: a segment set enters as
// a view (NewView) whose Topology fixes the partition level at 2 and
// ranks items by segment index.
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
)

// ManifestFormat identifies a shard-set manifest file.
const ManifestFormat = "xqcs1"

// ManifestExt is the conventional shard-set manifest extension.
const ManifestExt = ".xqcs"

// Manifest is the persisted description of a shard set. It is small
// JSON on purpose: the shard repositories carry the data, the manifest
// only records the topology — how many shards, where they live, how
// subtrees were routed, and the dictionary hash that guards against
// mixing shards from different builds.
//
// The routing map is implicit in the "roundrobin" policy: the k-th
// partitioned subtree (document order) of shard s has global rank
// k*len(Shards)+s, so merge order needs no per-subtree table.
type Manifest struct {
	Format string `json:"format"` // ManifestFormat
	// Shards are the shard repository file names, in shard order,
	// relative to the manifest's directory.
	Shards []string `json:"shards"`
	// PartitionLevel is the element level whose subtrees were routed
	// (root = 1).
	PartitionLevel int `json:"partition_level"`
	// Routing is the subtree routing policy; "roundrobin" is the only
	// one defined.
	Routing string `json:"routing"`
	// Subtrees is the total number of partitioned subtrees.
	Subtrees int `json:"subtrees"`
	// SubtreeCounts is the per-shard partitioned subtree count.
	SubtreeCounts []int `json:"subtree_counts"`
	// DictHash is the SHA-256 of the shared name dictionary; every
	// shard repository of the set must reproduce it.
	DictHash string `json:"dict_hash"`
	// OriginalSize is the uncompressed corpus size in bytes.
	OriginalSize int `json:"original_size"`
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

// ParseManifest decodes and validates a manifest.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: manifest is not valid JSON: %w", err)
	}
	if m.Format != ManifestFormat {
		return nil, fmt.Errorf("shard: manifest format %q, want %q", m.Format, ManifestFormat)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("shard: manifest lists no shards")
	}
	if m.Routing != "roundrobin" {
		return nil, fmt.Errorf("shard: unknown routing policy %q", m.Routing)
	}
	if len(m.SubtreeCounts) != len(m.Shards) {
		return nil, fmt.Errorf("shard: %d subtree counts for %d shards", len(m.SubtreeCounts), len(m.Shards))
	}
	if m.PartitionLevel < 2 {
		return nil, fmt.Errorf("shard: partition level %d < 2", m.PartitionLevel)
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
