// Package segment is the mutable-repository layer: an LSM-flavored
// segment model that turns the paper's write-once compressed repository
// into an appendable one. A segment set is a shard.Set of kind
// KindSegment: an immutable base segment plus zero or more append
// segments — each a complete compressed repository of one document —
// sharing one interned name dictionary (every later segment's
// dictionary extends the previous one as a prefix). The logical corpus
// is the concatenation: the base document's root with every segment's
// root children spliced under it in segment order.
//
// Sets are immutable values: an append or a compaction builds a NEW set
// (new generation, new store slice) and the owner swaps it in
// atomically. Readers holding the old set keep a consistent snapshot —
// nothing in a set is ever written after construction — which is what
// lets a server compact in the background under active streaming
// queries.
//
// The manifest, Open, Save and the query path belong to package shard,
// which answers a segment set exactly as it answers a shard set. This
// package keeps only what is segment-specific: starting, appending to
// and compacting a set, and the textual corpus definition (Concat).
package segment

import (
	"fmt"
	"slices"
	"strings"

	"xquec/internal/shard"
	"xquec/internal/storage"
)

// Base wraps a freshly ingested store as a single-segment set.
func Base(store *storage.Store) (*shard.Set, error) {
	root := store.TagOf(1)
	if root == "" || strings.HasPrefix(root, "@") {
		return nil, fmt.Errorf("segment: store has no element root")
	}
	return shard.NewSet(&shard.Manifest{
		Format:         shard.ManifestFormat,
		Kind:           shard.KindSegment,
		Members:        []string{""},
		DictHashes:     []string{shard.DictionaryHash(store.Names)},
		PartitionLevel: 2,
		OriginalSize:   store.OriginalSize,
		Generation:     1,
		RootTag:        root,
	}, []*storage.Store{store}, "")
}

// Append ingests each doc as its own append segment and returns the
// grown set; s is untouched. Every doc must pass CheckAppend. Each new
// segment's name dictionary is pre-seeded with the previous segment's
// full dictionary, keeping name codes identical across the whole chain.
func Append(s *shard.Set, docs [][]byte, opts storage.LoadOptions) (*shard.Set, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("segment: nothing to append")
	}
	man := *s.Man
	man.Members = slices.Clone(s.Man.Members)
	man.DictHashes = slices.Clone(s.Man.DictHashes)
	man.Generation++
	stores := slices.Clone(s.Stores)
	for _, doc := range docs {
		if err := CheckAppend(s, doc); err != nil {
			return nil, err
		}
		opts.Dictionary = stores[len(stores)-1].Names
		st, err := storage.Load(doc, opts)
		if err != nil {
			return nil, err
		}
		stores = append(stores, st)
		man.Members = append(man.Members, "")
		man.DictHashes = append(man.DictHashes, shard.DictionaryHash(st.Names))
		man.OriginalSize += len(doc)
	}
	return shard.NewSet(&man, stores, s.Dir)
}

// CheckAppend validates doc as an append candidate without ingesting
// it: the root tag must match the set's and the root must carry no
// attributes (it is spliced away in the concatenated corpus, so there
// is nowhere for attributes to live).
func CheckAppend(s *shard.Set, doc []byte) error {
	p, err := splitDoc(doc)
	if err != nil {
		return err
	}
	if p.root != s.Man.RootTag {
		return fmt.Errorf("segment: appended document root <%s> does not match repository root <%s>", p.root, s.Man.RootTag)
	}
	if p.hasAttrs {
		return fmt.Errorf("segment: appended document root <%s> carries attributes; only the base root may", p.root)
	}
	return nil
}

// Compact re-ingests the concatenated corpus as a single fresh base
// segment and returns the compacted one-segment set (the generation
// moves forward and the naming sequence carries over, so the compacted
// file can never collide with the files it replaces). xml, when
// non-nil, is a caller-supplied FuseXML result (callers re-running the
// cost-model search over the union already hold it); nil fuses here.
// opts usually carries the re-derived compression plan.
func Compact(s *shard.Set, xml []byte, opts storage.LoadOptions) (*shard.Set, error) {
	if xml == nil {
		var err error
		if xml, err = s.FuseXML(); err != nil {
			return nil, err
		}
	}
	opts.Dictionary = nil
	store, err := storage.Load(xml, opts)
	if err != nil {
		return nil, err
	}
	man := *s.Man
	man.Members = []string{""}
	man.DictHashes = []string{shard.DictionaryHash(store.Names)}
	man.OriginalSize = len(xml)
	man.Generation++
	return shard.NewSet(&man, []*storage.Store{store}, s.Dir)
}
