package shard

import (
	"fmt"
	"path/filepath"
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

// Topology is how a set's members partition one logical corpus: the
// facts the scatter analyzer, the workers' rank stamping and the fused
// fallback need, and nothing else. Shards and segments are both N
// compressed repositories sharing one name dictionary; they differ only
// in these facts.
type Topology struct {
	// Member names one partition in messages and EXPLAIN output
	// ("shard" or "segment").
	Member string
	// Level is the partition level (root = 1): every element at this
	// depth or below lives in exactly one member; the elements above it
	// are the spine, present in every member.
	Level int
	// SpineAttrs reports whether the attributes of spine elements are
	// replicated in every member. The shard splitter echoes the spine
	// with its attributes into every shard; appended segment roots carry
	// no attributes, so only the base segment holds any.
	SpineAttrs bool
	// Rank maps a binding node of member m to its global merge rank;
	// ok=false marks a spine node. Ranks are non-decreasing in document
	// order within one member and never tie across members.
	Rank func(m int, id storage.NodeID) (rank uint64, ok bool)
	// FuseXML reconstructs the whole corpus document.
	FuseXML func() ([]byte, error)
	// Key identifies the topology for cache keying: two sets answer
	// queries identically only if their keys match.
	Key string
	// OriginalSize is the uncompressed corpus size in bytes.
	OriginalSize int
}

// Set is N member repositories opened as one logical corpus: the
// stores, their topology, and the lazily built fused store and
// workers. A shard set also carries its manifest and the per-shard
// subtree tables that map a node to its global document-order rank; a
// view over another kind of member set (NewView) carries neither.
type Set struct {
	Man    *Manifest // nil for a view
	Stores []*storage.Store

	topo   Topology
	tables [][]span // per shard, partitioned subtree roots in doc order

	// fused is the lazily reconstructed single-store view, used for
	// queries the scatter analyzer declines (aggregates over the whole
	// corpus, multi-document joins, ORDER BY). Built at most once.
	fuseOnce sync.Once
	fused    *storage.Store
	fuseErr  error

	workersOnce sync.Once
	workers     []Worker
}

// NewView returns a set over stores partitioned as topo — how a member
// set other than a shard set (a segment set) enters the query path.
func NewView(stores []*storage.Store, topo Topology) *Set {
	return &Set{Stores: stores, topo: topo}
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
		Shards:         make([]string, shards),
		PartitionLevel: split.PartitionLevel,
		Routing:        "roundrobin",
		Subtrees:       split.Subtrees,
		SubtreeCounts:  split.SubtreeCounts,
		DictHash:       DictionaryHash(split.Dictionary),
		OriginalSize:   len(src),
	}
	for i := range man.Shards {
		man.Shards[i] = fmt.Sprintf("shard-%03d.xqc", i)
	}
	return newSet(man, stores)
}

// OpenSet loads a shard set from its manifest file. Shard repositories
// load in parallel; each is checked against the manifest's dictionary
// hash so shards from different builds cannot be mixed.
func OpenSet(path string) (*Set, error) {
	man, err := ReadManifest(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	stores := make([]*storage.Store, len(man.Shards))
	err = xpar.ForEach(len(man.Shards), len(man.Shards), func(i int) error {
		st, err := storage.OpenFile(filepath.Join(dir, man.Shards[i]))
		if err != nil {
			return fmt.Errorf("shard: opening shard %d (%s): %w", i, man.Shards[i], err)
		}
		stores[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newSet(man, stores)
}

// OpenSetBytes assembles a set from a parsed manifest and raw shard
// repository bytes (index-aligned with man.Shards) — the in-memory
// counterpart of OpenSet.
func OpenSetBytes(man *Manifest, shardData [][]byte) (*Set, error) {
	if len(shardData) != len(man.Shards) {
		return nil, fmt.Errorf("shard: %d shard payloads for %d shards", len(shardData), len(man.Shards))
	}
	stores := make([]*storage.Store, len(shardData))
	err := xpar.ForEach(len(shardData), len(shardData), func(i int) error {
		st, err := storage.LoadBinary(shardData[i])
		if err != nil {
			return fmt.Errorf("shard: decoding shard %d: %w", i, err)
		}
		stores[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newSet(man, stores)
}

func newSet(man *Manifest, stores []*storage.Store) (*Set, error) {
	if len(stores) != len(man.Shards) {
		return nil, fmt.Errorf("shard: %d stores for %d manifest shards", len(stores), len(man.Shards))
	}
	s := &Set{Man: man, Stores: stores, tables: make([][]span, len(stores))}
	s.topo = Topology{
		Member:     "shard",
		Level:      man.PartitionLevel,
		SpineAttrs: true,
		Rank:       s.rankOf,
		FuseXML:    s.fuseXML,
		Key: fmt.Sprintf("shards=%d;level=%d;subtrees=%d;dict=%.12s",
			len(stores), man.PartitionLevel, man.Subtrees, man.DictHash),
		OriginalSize: man.OriginalSize,
	}
	for i, st := range stores {
		if got := DictionaryHash(st.Names); got != man.DictHash {
			return nil, fmt.Errorf("shard: shard %d dictionary hash %.12s does not match manifest %.12s (mixed shard builds?)", i, got, man.DictHash)
		}
		s.tables[i] = subtreeTable(st, man.PartitionLevel)
		if len(s.tables[i]) != man.SubtreeCounts[i] {
			return nil, fmt.Errorf("shard: shard %d has %d partitioned subtrees, manifest says %d", i, len(s.tables[i]), man.SubtreeCounts[i])
		}
	}
	return s, nil
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

// Member names one partition of the set ("shard" or "segment").
func (s *Set) Member() string { return s.topo.Member }

// OriginalSize is the uncompressed corpus size in bytes.
func (s *Set) OriginalSize() int { return s.topo.OriginalSize }

// rankOf maps a node of one shard store to the global document-order
// rank of the partitioned subtree containing it. ok is false for spine
// nodes (nodes outside every partitioned subtree) — a scatter-safe
// query never binds those.
func (s *Set) rankOf(shard int, id storage.NodeID) (uint64, bool) {
	table := s.tables[shard]
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
	return uint64(k)*uint64(len(s.Stores)) + uint64(shard), true
}

// TopologyKey describes the set's topology for cache keying: two sets
// answer queries identically only if their topology keys match.
func (s *Set) TopologyKey() string { return s.topo.Key }

// Save writes the shard repositories next to the manifest at path
// (which should end in ManifestExt). Shard file names derive from the
// manifest base name, and the manifest is written last so a readable
// manifest implies readable shards.
func (s *Set) Save(path string) error {
	dir := filepath.Dir(path)
	base := strings.TrimSuffix(filepath.Base(path), ManifestExt)
	for i, st := range s.Stores {
		s.Man.Shards[i] = fmt.Sprintf("%s.shard-%03d.xqc", base, i)
		if err := st.SaveFile(filepath.Join(dir, s.Man.Shards[i])); err != nil {
			return err
		}
	}
	data, err := MarshalManifest(s.Man)
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(path, append(data, '\n'))
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
			s.fuseErr = fmt.Errorf("%s: reconstructing corpus: %w", s.topo.Member, err)
			return
		}
		s.fused, s.fuseErr = storage.Load(xml, storage.LoadOptions{Parallelism: parallelism})
	})
	return s.fused, s.fuseErr
}

// FuseXML reconstructs the whole corpus document from the members.
func (s *Set) FuseXML() ([]byte, error) { return s.topo.FuseXML() }

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
