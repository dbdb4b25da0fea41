package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"xquec/internal/shard"
	"xquec/internal/storage"
	"xquec/internal/xpar"
)

// Set is a segment set: the manifest plus the per-segment stores in
// segment order (index 0 is the base). A Set is an immutable value —
// Append and Compact return a new Set sharing the unchanged stores —
// so a reader holding one keeps a consistent snapshot across any
// number of concurrent appends and compactions.
type Set struct {
	Man    *Manifest
	Stores []*storage.Store

	// seqs are the per-segment naming sequence numbers (Manifest.Sequence
	// values claimed at segment creation); savedAs remembers where each
	// segment was last written so Save only touches new segments.
	seqs    []int
	savedAs []string

	// view is the query path's handle on the set, built on first use.
	viewOnce sync.Once
	view     *shard.Set
}

// NewBase wraps a freshly ingested store as a single-segment set.
func NewBase(store *storage.Store) (*Set, error) {
	root := store.TagOf(1)
	if root == "" || strings.HasPrefix(root, "@") {
		return nil, fmt.Errorf("segment: store has no element root")
	}
	man := &Manifest{
		Format:        ManifestFormat,
		RootTag:       root,
		Segments:      []string{""},
		DictHashes:    []string{shard.DictionaryHash(store.Names)},
		OriginalSizes: []int{store.OriginalSize},
		Generation:    1,
		Sequence:      1,
	}
	return &Set{
		Man:     man,
		Stores:  []*storage.Store{store},
		seqs:    []int{0},
		savedAs: []string{""},
	}, nil
}

// Append ingests each doc as its own append segment and returns the
// grown set. The receiver is untouched. Every doc must have the set's
// root tag and an attribute-free root (its root is spliced away in the
// concatenated corpus, so there is nowhere for attributes to live).
// Each new segment's name dictionary is pre-seeded with the previous
// segment's full dictionary, keeping name codes identical across the
// whole chain.
func (s *Set) Append(docs [][]byte, opts storage.LoadOptions) (*Set, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("segment: nothing to append")
	}
	n := len(s.Stores)
	stores := append(s.Stores[:n:n], make([]*storage.Store, len(docs))...)
	man := &Manifest{
		Format:        ManifestFormat,
		RootTag:       s.Man.RootTag,
		Segments:      append(s.Man.Segments[:n:n], make([]string, len(docs))...),
		DictHashes:    append(s.Man.DictHashes[:n:n], make([]string, len(docs))...),
		OriginalSizes: append(s.Man.OriginalSizes[:n:n], make([]int, len(docs))...),
		Generation:    s.Man.Generation + 1,
		Sequence:      s.Man.Sequence + len(docs),
	}
	seqs := append(s.seqs[:n:n], make([]int, len(docs))...)
	savedAs := append(s.savedAs[:n:n], make([]string, len(docs))...)
	for i, doc := range docs {
		p, err := splitDoc(doc)
		if err != nil {
			return nil, err
		}
		if p.root != man.RootTag {
			return nil, fmt.Errorf("segment: appended document root <%s> does not match repository root <%s>", p.root, man.RootTag)
		}
		if p.hasAttrs {
			return nil, fmt.Errorf("segment: appended document root <%s> carries attributes; only the base root may", p.root)
		}
		opts.Dictionary = stores[n+i-1].Names
		st, err := storage.Load(doc, opts)
		if err != nil {
			return nil, err
		}
		stores[n+i] = st
		man.DictHashes[n+i] = shard.DictionaryHash(st.Names)
		man.OriginalSizes[n+i] = len(doc)
		seqs[n+i] = s.Man.Sequence + i
	}
	return &Set{Man: man, Stores: stores, seqs: seqs, savedAs: savedAs}, nil
}

// CheckAppend validates doc as an append candidate without ingesting
// it: the root tag must match the set's and the root must carry no
// attributes (it is spliced away in the concatenated corpus, so there
// is nowhere for attributes to live).
func (s *Set) CheckAppend(doc []byte) error {
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
// segment and returns the compacted one-segment set (generation moves
// forward, the naming sequence is not reused, so the compacted file can
// never collide with the files it replaces). xml, when non-nil, is a
// caller-supplied FuseXML result (callers re-running the cost-model
// search over the union already hold it); nil fuses here. opts usually
// carries the re-derived compression plan.
func (s *Set) Compact(xml []byte, opts storage.LoadOptions) (*Set, error) {
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
	man := &Manifest{
		Format:        ManifestFormat,
		RootTag:       s.Man.RootTag,
		Segments:      []string{""},
		DictHashes:    []string{shard.DictionaryHash(store.Names)},
		OriginalSizes: []int{len(xml)},
		Generation:    s.Man.Generation + 1,
		Sequence:      s.Man.Sequence + 1,
	}
	return &Set{
		Man:     man,
		Stores:  []*storage.Store{store},
		seqs:    []int{s.Man.Sequence},
		savedAs: []string{""},
	}, nil
}

// Open loads a segment set from its manifest file. Segments load in
// parallel and are verified against the manifest's dictionary chain.
func Open(path string) (*Set, error) {
	man, err := ReadManifest(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	stores := make([]*storage.Store, len(man.Segments))
	savedAs := make([]string, len(man.Segments))
	err = xpar.ForEach(len(man.Segments), len(man.Segments), func(i int) error {
		full := filepath.Join(dir, man.Segments[i])
		st, err := storage.OpenFile(full)
		if err != nil {
			return fmt.Errorf("segment: opening segment %d (%s): %w", i, man.Segments[i], err)
		}
		stores[i] = st
		savedAs[i] = full
		return nil
	})
	if err != nil {
		return nil, err
	}
	seqs := make([]int, len(stores))
	for i := range seqs {
		seqs[i] = i
	}
	set := &Set{Man: man, Stores: stores, seqs: seqs, savedAs: savedAs}
	if err := set.validate(); err != nil {
		return nil, err
	}
	return set, nil
}

// validate checks the opened stores against the manifest: per-segment
// dictionary hashes, the prefix-extension chain (segment i+1's
// dictionary must extend segment i's), and the shared root tag.
func (s *Set) validate() error {
	for i, st := range s.Stores {
		if got := shard.DictionaryHash(st.Names); got != s.Man.DictHashes[i] {
			return fmt.Errorf("segment: segment %d dictionary hash %.12s does not match manifest %.12s (mixed segment builds?)", i, got, s.Man.DictHashes[i])
		}
		if tag := st.TagOf(1); tag != s.Man.RootTag {
			return fmt.Errorf("segment: segment %d root <%s> does not match manifest root <%s>", i, tag, s.Man.RootTag)
		}
		if i == 0 {
			continue
		}
		prev := s.Stores[i-1].Names
		if len(st.Names) < len(prev) {
			return fmt.Errorf("segment: segment %d dictionary shrinks the chain", i)
		}
		for j, name := range prev {
			if st.Names[j] != name {
				return fmt.Errorf("segment: segment %d dictionary diverges from segment %d at name %d (%q vs %q)", i, i-1, j, st.Names[j], name)
			}
		}
	}
	return nil
}

// Segments returns the segment count.
func (s *Set) Segments() int { return len(s.Stores) }

// OriginalSize is the total uncompressed size across segments.
func (s *Set) OriginalSize() int {
	n := 0
	for _, sz := range s.Man.OriginalSizes {
		n += sz
	}
	return n
}

// Dictionary returns the chain's full name dictionary (the last
// segment's — every earlier dictionary is a prefix of it).
func (s *Set) Dictionary() []string { return s.Stores[len(s.Stores)-1].Names }

// TopologyKey describes the segment topology for cache keying: two
// sets answer queries identically only if their topology keys match.
// Generation is included so a compaction (same logical corpus, new
// stores) still rolls the key.
func (s *Set) TopologyKey() string {
	return fmt.Sprintf("segments=%d;gen=%d;dict=%.12s",
		len(s.Stores), s.Man.Generation, s.Man.DictHashes[len(s.Stores)-1])
}

// FuseXML reconstructs the concatenated corpus: every segment's
// document serialized from its store, spliced under the base root.
func (s *Set) FuseXML() ([]byte, error) {
	docs := make([][]byte, len(s.Stores))
	err := xpar.ForEach(len(s.Stores), len(s.Stores), func(i int) error {
		xml, err := s.Stores[i].Serialize(nil, 1)
		if err != nil {
			return fmt.Errorf("segment: serializing segment %d: %w", i, err)
		}
		docs[i] = xml
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Concat(docs...)
}

// View returns the set as the query path sees it: a shard.Set over the
// segment stores, partitioned at level 2 with rank = segment index.
// Everything below the root of segment k precedes segment k+1 in the
// concatenated corpus, so one rank per stream yields whole-corpus
// document order; root attributes live only in the base segment
// (appended roots are attribute-free), so they are not replicated.
func (s *Set) View() *shard.Set {
	s.viewOnce.Do(func() {
		s.view = shard.NewView(s.Stores, shard.Topology{
			Member:       "segment",
			Level:        2,
			SpineAttrs:   false,
			Rank:         func(m int, _ storage.NodeID) (uint64, bool) { return uint64(m), true },
			FuseXML:      s.FuseXML,
			Key:          s.TopologyKey(),
			OriginalSize: s.OriginalSize(),
		})
	})
	return s.view
}

// Save writes the set next to the manifest at path (which should end
// in ManifestExt). Only segments not already on disk at their target
// are written; the manifest is written last so a readable manifest
// implies readable segments; stale segment files from superseded sets
// are removed afterwards.
func (s *Set) Save(path string) error {
	dir := filepath.Dir(path)
	base := strings.TrimSuffix(filepath.Base(path), ManifestExt)
	for i, st := range s.Stores {
		name := s.Man.Segments[i]
		if name == "" {
			name = fmt.Sprintf("%s.seg-%06d.xqc", base, s.seqs[i])
			s.Man.Segments[i] = name
		}
		full := filepath.Join(dir, name)
		if s.savedAs[i] == full {
			continue
		}
		if err := st.SaveFile(full); err != nil {
			return err
		}
		s.savedAs[i] = full
	}
	data, err := MarshalManifest(s.Man)
	if err != nil {
		return err
	}
	if err := storage.WriteFileAtomic(path, append(data, '\n')); err != nil {
		return err
	}
	s.gcStale(dir, base)
	return nil
}

// gcStale removes segment files of superseded sets: files matching the
// manifest's naming scheme that the current manifest no longer lists.
// Best-effort — a failed removal leaves garbage, never corruption.
func (s *Set) gcStale(dir, base string) {
	live := map[string]bool{}
	for _, name := range s.Man.Segments {
		live[name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	prefix := base + ".seg-"
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".xqc") || live[name] {
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}
