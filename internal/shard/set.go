package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"xquec/internal/storage"
	"xquec/internal/xmlparser"
	"xquec/internal/xpar"
)

// span is one partitioned subtree in a shard store: the pre-order ID of
// its root and the largest ID in its subtree. Spans are in document
// order (ascending, disjoint), so a binding node maps to its subtree by
// binary search.
type span struct {
	start, end storage.NodeID
}

// Set is N member repositories opened as one logical corpus: the
// manifest, the member stores in member order, and the lazily built
// fused store and workers. A Set is an immutable value — a save, an
// append or a compaction returns a new Set sharing the unchanged
// stores — so a reader holding one keeps a consistent snapshot.
//
// Every element at or below the partition level lives in exactly one
// member; the elements above it are the spine, present in every member.
// A shard set replicates the spine's attributes and text in every
// shard; a segment set's appended roots are attribute-free, so only the
// base segment holds root attributes.
type Set struct {
	Man    *Manifest
	Stores []*storage.Store
	// Dir is the directory holding the member files the manifest names;
	// empty for a set whose members were never opened or saved.
	Dir string

	key    string
	tables [][]span // shard sets: per shard, partitioned subtree roots in doc order

	// fused is the lazily reconstructed single-store view, used for
	// queries the scatter analyzer declines (aggregates over the whole
	// corpus, multi-document joins, ORDER BY). Built at most once.
	fuseOnce sync.Once
	fused    *storage.Store
	fuseErr  error

	workersOnce sync.Once
	workers     []Worker
}

// Build splits src into `shards` shard repositories (shard-aware
// ingest) and assembles the in-memory Set.
func Build(src []byte, shards int, opts storage.LoadOptions) (*Set, error) {
	stores, split, err := storage.LoadSharded(src, shards, opts)
	if err != nil {
		return nil, err
	}
	man := &Manifest{
		Format:         ManifestFormat,
		Kind:           KindShard,
		Members:        make([]string, shards),
		DictHashes:     slices.Repeat([]string{DictionaryHash(split.Dictionary)}, shards),
		PartitionLevel: split.PartitionLevel,
		OriginalSize:   len(src),
		Generation:     1,
		Routing:        "roundrobin",
		Subtrees:       split.Subtrees,
		SubtreeCounts:  split.SubtreeCounts,
	}
	return NewSet(man, stores, "")
}

// OpenSet loads a set from its manifest file. Member repositories load
// in parallel and are validated against the manifest (see NewSet).
func OpenSet(path string) (*Set, error) {
	man, err := ReadManifest(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	stores := make([]*storage.Store, len(man.Members))
	err = xpar.ForEach(len(stores), len(stores), func(i int) error {
		st, err := storage.OpenFile(filepath.Join(dir, man.Members[i]))
		if err != nil {
			return fmt.Errorf("shard: opening %s %d (%s): %w", man.Kind, i, man.Members[i], err)
		}
		stores[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return NewSet(man, stores, dir)
}

// NewSet assembles a set from its manifest and member stores and checks
// that the stores are the members the manifest describes: every
// member's dictionary hash matches; a shard's partitioned subtree count
// matches; a segment's root is the manifest's root tag and its
// dictionary extends the previous segment's as a prefix. dir is where
// the members the manifest names are on disk (see Set.Dir).
func NewSet(man *Manifest, stores []*storage.Store, dir string) (*Set, error) {
	kind := man.Kind
	if len(stores) != len(man.Members) {
		return nil, fmt.Errorf("shard: %d stores for %d manifest members", len(stores), len(man.Members))
	}
	for i, st := range stores {
		if got := DictionaryHash(st.Names); got != man.DictHashes[i] {
			return nil, fmt.Errorf("shard: %s %d dictionary hash %.12s does not match manifest %.12s (mixed %s builds?)", kind, i, got, man.DictHashes[i], kind)
		}
	}
	var tables [][]span
	switch kind {
	case KindShard:
		tables = make([][]span, len(stores))
		for i, st := range stores {
			tables[i] = subtreeTable(st, man.PartitionLevel)
			if len(tables[i]) != man.SubtreeCounts[i] {
				return nil, fmt.Errorf("shard: shard %d has %d partitioned subtrees, manifest says %d", i, len(tables[i]), man.SubtreeCounts[i])
			}
		}
	case KindSegment:
		for i, st := range stores {
			if tag := st.TagOf(1); tag != man.RootTag {
				return nil, fmt.Errorf("shard: segment %d root <%s> does not match manifest root <%s>", i, tag, man.RootTag)
			}
			if i == 0 {
				continue
			}
			if prev := stores[i-1].Names; len(st.Names) < len(prev) || !slices.Equal(st.Names[:len(prev)], prev) {
				return nil, fmt.Errorf("shard: segment %d dictionary does not extend segment %d's", i, i-1)
			}
		}
	default:
		return nil, fmt.Errorf("shard: unknown set kind %q", kind)
	}
	return newSet(man, stores, tables, dir), nil
}

// newSet builds a Set without validation, deriving its topology key.
func newSet(man *Manifest, stores []*storage.Store, tables [][]span, dir string) *Set {
	return &Set{
		Man:    man,
		Stores: stores,
		Dir:    dir,
		tables: tables,
		key: fmt.Sprintf("%ss=%d;level=%d;subtrees=%d;gen=%d;dict=%.12s",
			man.Kind, len(stores), man.PartitionLevel, man.Subtrees, man.Generation, man.DictHashes[len(stores)-1]),
	}
}

// subtreeTable collects the partitioned subtree roots of one shard
// store: elements (not attributes — attributes of spine elements also
// sit at the partition level) whose level equals the partition level,
// in document order.
func subtreeTable(st *storage.Store, level int) []span {
	var roots []storage.NodeID
	st.ScanNodes(func(id storage.NodeID, lvl uint16) {
		if int(lvl) != level || st.IsAttr(id) {
			return
		}
		roots = append(roots, id)
	})
	ends := make([]storage.NodeID, len(roots))
	st.SubtreeEndBulk(roots, ends)
	out := make([]span, len(roots))
	for i, id := range roots {
		out[i] = span{start: id, end: ends[i]}
	}
	return out
}

// rank maps a binding node of member m to its global merge rank; ok is
// false for a spine node, which a scatter-safe query never binds. Ranks
// are non-decreasing in document order within one member and never tie
// across members. Everything below the root of segment k precedes
// segment k+1 in the corpus, so a segment's rank is its index; a
// shard's is the global document-order rank of the partitioned subtree
// containing the node.
func (s *Set) rank(m int, id storage.NodeID) (uint64, bool) {
	if s.Man.Kind == KindSegment {
		return uint64(m), true
	}
	table := s.tables[m]
	lo, hi := 0, len(table)
	for lo < hi {
		mid := (lo + hi) / 2
		if table[mid].start <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	k := lo - 1
	if k < 0 || id > table[k].end {
		return 0, false
	}
	return uint64(k)*uint64(len(s.Stores)) + uint64(m), true
}

// TopologyKey describes the set's topology for cache keying: two sets
// answer queries identically only if their topology keys match. The
// generation is included so a compaction (same logical corpus, new
// stores) still rolls the key.
func (s *Set) TopologyKey() string { return s.key }

// Save persists the set at path: the member repositories next to the
// manifest, then the manifest. Whatever the kind, it
//
//  1. never writes over a file the manifest currently at path names:
//     new members take names that manifest does not reference,
//     continuing its naming sequence;
//  2. writes only members that are not already on disk under their
//     name, so a commit writes only its new segments;
//  3. swaps the manifest in last, atomically, then removes this
//     manifest's member files that nothing references any more.
//
// A crash at any point therefore leaves the previous manifest and every
// file it names intact. Save does not modify the receiver; it returns
// the set as persisted, whose members a later Save to the same path
// recognizes as already on disk.
func (s *Set) Save(path string) (*Set, error) {
	dir := filepath.Dir(path)
	kind := s.Man.Kind
	ext := ManifestExt
	if kind == KindSegment {
		ext = SegmentManifestExt
	}
	base := strings.TrimSuffix(filepath.Base(path), ext)

	man := *s.Man
	man.Members = slices.Clone(s.Man.Members)
	// referenced maps each member the current manifest names to its
	// dictionary hash. A manifest that does not parse names nothing Open
	// would accept, so there is no generation to protect.
	referenced := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if cur, err := ParseManifest(data); err == nil {
			for i, name := range cur.Members {
				referenced[name] = cur.DictHashes[i]
			}
			man.Sequence = max(man.Sequence, cur.Sequence)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("shard: reading the manifest to replace: %w", err)
	}
	for i, st := range s.Stores {
		if h, ok := referenced[man.Members[i]]; ok && s.Dir == dir && h == man.DictHashes[i] {
			continue
		}
		var name string
		for {
			name = memberName(base, kind, man.Sequence)
			man.Sequence++
			if _, taken := referenced[name]; !taken {
				break
			}
		}
		if err := st.SaveFile(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
		man.Members[i] = name
	}
	data, err := MarshalManifest(&man)
	if err != nil {
		return nil, err
	}
	if err := storage.WriteFileAtomic(path, append(data, '\n')); err != nil {
		return nil, err
	}
	removeUnreferenced(dir, base, kind, man.Members)
	return newSet(&man, s.Stores, s.tables, dir), nil
}

// removeUnreferenced deletes the member files of the manifest named by
// base that members no longer lists: files of superseded generations
// and of saves that failed partway. Best-effort — a failed removal
// leaves garbage, never corruption.
func removeUnreferenced(dir, base, kind string, members []string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		m := memberFile.FindStringSubmatch(e.Name())
		if m != nil && m[1] == base && m[2] == memberInfix[kind] && !slices.Contains(members, e.Name()) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Fused returns the single-store view of the set, reconstructing the
// corpus from the members and re-ingesting it on first use. Queries
// the analyzer cannot scatter (whole-corpus aggregates, multi-document
// joins, ORDER BY over the full result) run here, so every query over
// a set has an answer — scatter is the fast path, not the only path. A
// one-member set is its own corpus and needs no re-ingest.
func (s *Set) Fused(parallelism int) (*storage.Store, error) {
	s.fuseOnce.Do(func() {
		if len(s.Stores) == 1 {
			s.fused = s.Stores[0]
			return
		}
		xml, err := s.FuseXML()
		if err != nil {
			s.fuseErr = fmt.Errorf("%s: reconstructing corpus: %w", s.Man.Kind, err)
			return
		}
		s.fused, s.fuseErr = storage.Load(xml, storage.LoadOptions{Parallelism: parallelism})
	})
	return s.fused, s.fuseErr
}

// FuseXML reconstructs the whole corpus document from the members.
func (s *Set) FuseXML() ([]byte, error) {
	if s.Man.Kind == KindSegment {
		return s.concatXML()
	}
	return s.fuseXML()
}

// concatXML reconstructs a segment set's corpus: the base document with
// every later segment's root content appended under its root, in
// segment order (the textual definition is segment.Concat). Segments
// serialize in parallel; the serializer writes an attribute-free root
// as "<tag>content</tag>" or "<tag/>", which fixes where content starts
// and ends.
func (s *Set) concatXML() ([]byte, error) {
	docs := make([][]byte, len(s.Stores))
	err := xpar.ForEach(len(docs), len(docs), func(i int) error {
		xml, err := s.Stores[i].Serialize(nil, 1)
		if err != nil {
			return fmt.Errorf("serializing segment %d: %w", i, err)
		}
		docs[i] = xml
		return nil
	})
	if err != nil {
		return nil, err
	}
	open, closeTag := "<"+s.Man.RootTag+">", "</"+s.Man.RootTag+">"
	out := docs[0]
	if bytes.HasSuffix(out, []byte("/>")) {
		out = append(out[:len(out)-2], '>')
	} else {
		out = out[:len(out)-len(closeTag)]
	}
	for i, doc := range docs[1:] {
		switch {
		case bytes.HasPrefix(doc, []byte(open)):
			out = append(out, doc[len(open):len(doc)-len(closeTag)]...)
		case string(doc) != "<"+s.Man.RootTag+"/>":
			return nil, fmt.Errorf("segment %d root carries attributes", i+1)
		}
	}
	return append(out, closeTag...), nil
}

// fuseXML reconstructs the original document from the shards: the
// spine (and its text) comes from shard 0, and each spine parent's
// partitioned subtrees are re-interleaved from all shards in global
// rank order — exactly inverting the round-robin split.
func (s *Set) fuseXML() ([]byte, error) {
	s0 := s.Stores[0]
	level := s.Man.PartitionLevel

	// Spine elements occupy the same ordinal positions in every shard
	// (the splitter echoes them to all shards in document order), so a
	// per-shard "spine index" aligns parents across shards.
	spineIdx := make([]map[storage.NodeID]int, len(s.Stores))
	for si, st := range s.Stores {
		idx := map[storage.NodeID]int{}
		n := 0
		st.ScanNodes(func(id storage.NodeID, lvl uint16) {
			if int(lvl) < level && !st.IsAttr(id) {
				idx[id] = n
				n++
			}
		})
		spineIdx[si] = idx
	}

	// Partitioned subtrees grouped by their parent's spine ordinal,
	// sorted by global rank (table order is rank order within a shard:
	// the k-th table entry of shard s has rank k*N+s).
	type part struct {
		rank  uint64
		shard int
		root  storage.NodeID
	}
	byParent := map[int][]part{}
	for si := range s.Stores {
		for k, sp := range s.tables[si] {
			parent := s.Stores[si].Parent(sp.start)
			psi, ok := spineIdx[si][parent]
			if !ok {
				return nil, fmt.Errorf("shard: subtree %d of shard %d has non-spine parent", k, si)
			}
			byParent[psi] = append(byParent[psi], part{
				rank:  uint64(k)*uint64(len(s.Stores)) + uint64(si),
				shard: si,
				root:  sp.start,
			})
		}
	}
	for _, ps := range byParent {
		sort.Slice(ps, func(i, j int) bool { return ps[i].rank < ps[j].rank })
	}

	sc := storage.NewScratch()
	defer sc.Release()
	var dst []byte
	var emit func(id storage.NodeID) error
	emit = func(id storage.NodeID) error {
		tag := s0.TagOf(id)
		dst = append(dst, '<')
		dst = append(dst, tag...)
		for k := range s0.Kids(id) {
			if k.ID != 0 && s0.IsAttr(k.ID) {
				dst = append(dst, ' ')
				var err error
				dst, err = s0.SerializeScratch(sc, dst, k.ID)
				if err != nil {
					return err
				}
			}
		}
		dst = append(dst, '>')
		for k := range s0.Kids(id) {
			if k.ID == 0 {
				v, err := s0.Container(k.Val.Container).DecodeScratch(sc, int(k.Val.Index))
				if err != nil {
					return err
				}
				dst = xmlparser.EscapeText(dst, string(v))
				continue
			}
			if s0.IsAttr(k.ID) || int(s0.LevelOf(k.ID)) >= level {
				// Attributes were emitted with the tag; level-P kids are
				// shard 0's own partitioned subtrees and come back via
				// the merged rank order below.
				continue
			}
			if err := emit(k.ID); err != nil {
				return err
			}
		}
		for _, p := range byParent[spineIdx[0][id]] {
			var err error
			dst, err = s.Stores[p.shard].SerializeScratch(sc, dst, p.root)
			if err != nil {
				return err
			}
		}
		dst = append(dst, '<', '/')
		dst = append(dst, tag...)
		dst = append(dst, '>')
		return nil
	}
	if err := emit(1); err != nil {
		return nil, err
	}
	return dst, nil
}
