package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"xquec/internal/btree"
	"xquec/internal/compress"
	"xquec/internal/compress/blob"
	"xquec/internal/succinct"
)

// Repository file magics. Version 3 replaced the per-node record
// stream of the structure section with the succinct encoding (paren
// bits + node marks); version-2 files still load — see LoadBinary.
var (
	magic   = []byte("XQCR3\n")
	magicV2 = []byte("XQCR2\n")
)

// AppendBinary serializes the repository. Everything derivable is
// rebuilt by LoadBinary instead of being stored: parent pointers,
// subtree ends, levels, the B+ index, summary extents, per-container
// equality permutations, and the container a value ref points to (it is
// determined by the owning node's path). What remains on disk is the
// dictionary, the source models, the compressed container payloads, the
// structure tree's shape, and the sorted-record indexes of the values.
// The bytes are identical whichever structure backend is resident.
func (s *Store) AppendBinary(dst []byte) []byte {
	dst = append(dst, magic...)
	dst = compress.AppendUvarint(dst, uint64(s.OriginalSize))
	dst = s.appendDictModelsContainers(dst)

	// Structure tree: the succinct section. Paren bits and node marks
	// carry the full shape including text interleaving; tags are listed
	// per node in pre-order, and each text leaf carries only its record
	// index in the (path-implied) container. The stream is highly
	// repetitive, so — like XMill's structure stream — it is stored
	// blob-compressed.
	a := s.structureArrays()
	var tree []byte
	tree = compress.AppendUvarint(tree, uint64(a.nParens))
	tree = compress.AppendUvarint(tree, uint64(a.nOpens))
	tree = compress.AppendUvarint(tree, uint64(len(a.valIdx)))
	tree = appendPackedBits(tree, a.parens, a.nParens)
	tree = appendPackedBits(tree, a.marks, a.nOpens)
	for _, t := range a.tags {
		tree = compress.AppendUvarint(tree, uint64(t))
	}
	for _, vi := range a.valIdx {
		tree = compress.AppendUvarint(tree, uint64(vi))
	}
	// Shortcut directories (trailing, so files written before they
	// existed still load — the reader rebuilds when the section is
	// absent). They are a pure function of the paren bits, which keeps
	// the bytes backend-independent.
	excBase, anc := a.excBase, a.anc
	if excBase == nil {
		excBase, anc = succinct.BuildDirs(a.parens, a.nParens)
	}
	tree = compress.AppendUvarint(tree, uint64(len(excBase)))
	for i := range excBase {
		tree = compress.AppendUvarint(tree, uint64(excBase[i]))
		tree = compress.AppendUvarint(tree, uint64(anc[i]+1))
	}
	dst = compress.AppendBytes(dst, blob.Compress(nil, tree))
	// Whole-file checksum: cheap end-to-end corruption detection for the
	// value payloads, which no structural validation can cover.
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

// structureArrays returns the succinct encoding of the structure tree,
// converting transiently when the record backend is resident.
func (s *Store) structureArrays() *succinctArrays {
	if s.succ != nil {
		return s.succ.arrays()
	}
	return recordsToArrays(s)
}

// appendDictModelsContainers writes the format sections shared by both
// file versions: the dictionary, the source models, and the container
// payloads.
func (s *Store) appendDictModelsContainers(dst []byte) []byte {
	// Dictionary.
	dst = compress.AppendUvarint(dst, uint64(len(s.Names)))
	for _, n := range s.Names {
		dst = compress.AppendBytes(dst, []byte(n))
	}

	// Source models.
	groupNames := make([]string, 0, len(s.Models))
	for g := range s.Models {
		groupNames = append(groupNames, g)
	}
	sort.Strings(groupNames)
	dst = compress.AppendUvarint(dst, uint64(len(groupNames)))
	groupIdx := map[string]int{}
	for i, g := range groupNames {
		groupIdx[g] = i
		gm := s.Models[g]
		dst = compress.AppendBytes(dst, []byte(g))
		dst = compress.AppendBytes(dst, []byte(gm.Algorithm))
		dst = compress.AppendBytes(dst, gm.Codec.AppendModel(nil))
	}

	// Containers.
	dst = compress.AppendUvarint(dst, uint64(len(s.Containers)))
	for _, c := range s.Containers {
		dst = compress.AppendBytes(dst, []byte(c.Path))
		dst = append(dst, byte(c.Kind))
		dst = compress.AppendUvarint(dst, uint64(groupIdx[c.Group]))
		dst = compress.AppendUvarint(dst, uint64(len(c.recs)))
		for _, r := range c.recs {
			dst = compress.AppendBytes(dst, r.Value)
		}
	}
	return dst
}

// appendBinaryV2 writes the version-2 (record-stream) format: tags and
// document-order child lists, child IDs delta-encoded against the
// node's own pre-order ID. Kept so the V2 read path stays covered by
// tests; new repositories always write the current format.
func (s *Store) appendBinaryV2(dst []byte) []byte {
	if s.nodes == nil {
		panic("storage: appendBinaryV2 needs the record backend")
	}
	dst = append(dst, magicV2...)
	dst = compress.AppendUvarint(dst, uint64(s.OriginalSize))
	dst = s.appendDictModelsContainers(dst)
	var tree []byte
	tree = compress.AppendUvarint(tree, uint64(len(s.nodes)))
	for i := range s.nodes {
		id := NodeID(i + 1)
		n := &s.nodes[i]
		tree = compress.AppendUvarint(tree, uint64(n.Tag))
		tree = compress.AppendUvarint(tree, uint64(len(n.Kids)))
		for _, k := range n.Kids {
			if k.IsValue() {
				tree = compress.AppendUvarint(tree, 1)
				tree = compress.AppendUvarint(tree, uint64(n.Values[k.ValueIndex()].Index))
			} else {
				tree = compress.AppendUvarint(tree, uint64(k.Node()-id)<<1)
			}
		}
	}
	dst = compress.AppendBytes(dst, blob.Compress(nil, tree))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

// appendPackedBits appends ceil(nBits/8) bytes of the packed bit words
// (bit i of the sequence = bit i%8 of byte i/8).
func appendPackedBits(dst []byte, words []uint64, nBits int) []byte {
	nBytes := (nBits + 7) / 8
	for i := 0; i < nBytes; i++ {
		dst = append(dst, byte(words[i>>3]>>(8*(uint(i)&7))))
	}
	return dst
}

// reader is a cursor over serialized repository bytes.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) uvarint() (uint64, error) {
	v, n, err := compress.ReadUvarint(r.data[r.pos:])
	if err != nil {
		return 0, fmt.Errorf("storage: corrupt repository at byte %d: %w", r.pos, err)
	}
	r.pos += n
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	b, n, err := compress.ReadBytes(r.data[r.pos:])
	if err != nil {
		return nil, fmt.Errorf("storage: corrupt repository at byte %d: %w", r.pos, err)
	}
	r.pos += n
	return b, nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("storage: truncated repository")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// LoadBinary reconstructs a repository serialized by AppendBinary. It
// reads both the current format and version-2 (record-stream) files;
// either loads into whichever structure backend XQUEC_STRUCT selects.
func LoadBinary(data []byte) (*Store, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("storage: not a repository file (bad magic)")
	}
	v3 := bytes.Equal(data[:len(magic)], magic)
	if !v3 && !bytes.Equal(data[:len(magicV2)], magicV2) {
		return nil, fmt.Errorf("storage: not a repository file (bad magic)")
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("storage: checksum mismatch (corrupt repository)")
	}
	data = body
	r := &reader{data: data, pos: len(magic)}
	s := &Store{nameIdx: map[string]uint16{}, Models: map[string]GroupModel{}}

	osz, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	s.OriginalSize = int(osz)

	nNames, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nNames; i++ {
		b, err := r.bytes()
		if err != nil {
			return nil, err
		}
		s.intern(string(b))
	}

	nGroups, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	groupNames := make([]string, nGroups)
	for i := uint64(0); i < nGroups; i++ {
		g, err := r.bytes()
		if err != nil {
			return nil, err
		}
		alg, err := r.bytes()
		if err != nil {
			return nil, err
		}
		model, err := r.bytes()
		if err != nil {
			return nil, err
		}
		codec, err := compress.LoadModel(string(alg), model)
		if err != nil {
			return nil, fmt.Errorf("storage: group %q: %w", g, err)
		}
		groupNames[i] = string(g)
		s.Models[string(g)] = GroupModel{Algorithm: string(alg), Codec: codec}
	}

	nConts, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for ci := uint64(0); ci < nConts; ci++ {
		path, err := r.bytes()
		if err != nil {
			return nil, err
		}
		kind, err := r.byte()
		if err != nil {
			return nil, err
		}
		gi, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if gi >= uint64(len(groupNames)) {
			return nil, fmt.Errorf("storage: container %q references group %d", path, gi)
		}
		group := groupNames[gi]
		nRecs, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nRecs > uint64(len(data)) {
			return nil, fmt.Errorf("storage: container %q record count %d implausible", path, nRecs)
		}
		c := &Container{
			Path:  string(path),
			Kind:  ValueKind(kind),
			Group: group,
			codec: s.Models[group].Codec,
			recs:  make([]Record, nRecs),
		}
		for i := uint64(0); i < nRecs; i++ {
			v, err := r.bytes()
			if err != nil {
				return nil, err
			}
			// Owners are not stored: the reconstruction walk re-derives
			// them from the structure tree's value refs.
			c.recs[i] = Record{Value: append([]byte(nil), v...)}
		}
		// Rebuild the equality permutation for order-agnostic codecs.
		if !c.codec.Props().OrderPreserving {
			c.eqOrder = make([]int32, len(c.recs))
			for i := range c.eqOrder {
				c.eqOrder[i] = int32(i)
			}
			sort.SliceStable(c.eqOrder, func(a, b int) bool {
				return bytes.Compare(c.recs[c.eqOrder[a]].Value, c.recs[c.eqOrder[b]].Value) < 0
			})
		}
		s.Containers = append(s.Containers, c)
	}

	// Structure tree shape (blob-compressed section).
	treeComp, err := r.bytes()
	if err != nil {
		return nil, err
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("storage: %d trailing bytes after repository", len(data)-r.pos)
	}
	treeRaw, err := blob.Decompress(nil, treeComp)
	if err != nil {
		return nil, fmt.Errorf("storage: corrupt structure section: %w", err)
	}
	r = &reader{data: treeRaw}
	mode := resolveStructure(StructDefault)
	if v3 {
		err = s.loadTreeV3(r)
	} else {
		err = s.loadTreeV2(r)
	}
	if err != nil {
		return nil, err
	}
	if r.pos != len(treeRaw) {
		return nil, fmt.Errorf("storage: %d trailing bytes in structure section", len(treeRaw)-r.pos)
	}

	// Rebuild the derived state on the backend the file loaded into,
	// then convert to the resident backend the mode asks for.
	if v3 {
		if err := s.deriveFromSuccinct(); err != nil {
			return nil, err
		}
		if mode == StructRecords {
			nodes, end, level, err := succinctToRecords(s.succ)
			if err != nil {
				return nil, err
			}
			s.nodes, s.end, s.level = nodes, end, level
			s.succ = nil
			s.buildNodeIndex()
		}
	} else {
		if err := s.reconstructDerived(mode == StructRecords); err != nil {
			return nil, err
		}
		if mode == StructSuccinct {
			s.succ = recordsToArrays(s).build()
			s.nodes, s.end, s.level = nil, nil, nil
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadTreeV3 parses the succinct structure section into s.succ. The
// bytes are untrusted: shape checks here, semantic checks in
// deriveFromSuccinct.
func (s *Store) loadTreeV3(r *reader) error {
	nParens, err := r.uvarint()
	if err != nil {
		return err
	}
	nOpens, err := r.uvarint()
	if err != nil {
		return err
	}
	nLeaves, err := r.uvarint()
	if err != nil {
		return err
	}
	if nParens != 2*nOpens || nOpens == 0 || nLeaves >= nOpens {
		return fmt.Errorf("storage: implausible structure shape (%d parens, %d opens, %d leaves)",
			nParens, nOpens, nLeaves)
	}
	if nParens/8 > uint64(len(r.data)) {
		return fmt.Errorf("storage: implausible paren count %d", nParens)
	}
	nNodes := nOpens - nLeaves
	parens, err := r.packedBits(int(nParens))
	if err != nil {
		return err
	}
	marks, err := r.packedBits(int(nOpens))
	if err != nil {
		return err
	}
	a := &succinctArrays{
		parens:  parens,
		nParens: int(nParens),
		marks:   marks,
		nOpens:  int(nOpens),
		tags:    make([]uint16, nNodes),
		valCont: make([]int32, nLeaves),
		valIdx:  make([]int32, nLeaves),
	}
	for i := range a.tags {
		t, err := r.uvarint()
		if err != nil {
			return err
		}
		if t >= uint64(len(s.Names)) {
			return fmt.Errorf("storage: node %d has unknown tag %d", i+1, t)
		}
		a.tags[i] = uint16(t)
	}
	for i := range a.valIdx {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		if v >= uint64(len(r.data))+uint64(nOpens) {
			return fmt.Errorf("storage: implausible value index %d", v)
		}
		a.valCont[i] = -1 // resolved by deriveFromSuccinct
		a.valIdx[i] = int32(v)
	}
	// Optional shortcut-directory section (absent in files written
	// before it existed; build() then re-derives the directories).
	if r.pos < len(r.data) {
		nBlocks, err := r.uvarint()
		if err != nil {
			return err
		}
		if nBlocks > uint64(len(r.data)) {
			return fmt.Errorf("storage: implausible directory block count %d", nBlocks)
		}
		a.excBase = make([]int32, nBlocks)
		a.anc = make([]int32, nBlocks)
		for i := range a.excBase {
			e, err := r.uvarint()
			if err != nil {
				return err
			}
			p, err := r.uvarint()
			if err != nil {
				return err
			}
			if e > uint64(nOpens) || p > nParens {
				return fmt.Errorf("storage: implausible directory entry (%d, %d)", e, p)
			}
			a.excBase[i] = int32(e)
			a.anc[i] = int32(p) - 1
		}
	}
	t := a.build()
	if t.isNode.Ones() != int(nNodes) || t.pv.Ones() != int(nOpens) {
		return fmt.Errorf("storage: structure bit counts disagree with the header")
	}
	s.succ = t
	return nil
}

// packedBits reads ceil(nBits/8) bytes written by appendPackedBits back
// into bit words.
func (r *reader) packedBits(nBits int) ([]uint64, error) {
	nBytes := (nBits + 7) / 8
	if r.pos+nBytes > len(r.data) {
		return nil, fmt.Errorf("storage: truncated bit section")
	}
	words := make([]uint64, (nBits+63)/64)
	for i := 0; i < nBytes; i++ {
		words[i>>3] |= uint64(r.data[r.pos+i]) << (8 * (uint(i) & 7))
	}
	r.pos += nBytes
	return words, nil
}

// loadTreeV2 parses the version-2 record-stream structure section into
// s.nodes (tags and child lists only; reconstructDerived fills the
// rest).
func (s *Store) loadTreeV2(r *reader) error {
	nNodes, err := r.uvarint()
	if err != nil {
		return err
	}
	if nNodes == 0 || nNodes > uint64(len(r.data)) {
		return fmt.Errorf("storage: implausible node count %d", nNodes)
	}
	s.nodes = make([]NodeRecord, nNodes)
	s.end = make([]NodeID, nNodes)
	s.level = make([]uint16, nNodes)
	for i := uint64(0); i < nNodes; i++ {
		id := NodeID(i + 1)
		tag, err := r.uvarint()
		if err != nil {
			return err
		}
		if tag >= uint64(len(s.Names)) {
			return fmt.Errorf("storage: node %d has unknown tag %d", id, tag)
		}
		nKids, err := r.uvarint()
		if err != nil {
			return err
		}
		if nKids > nNodes+uint64(len(r.data)) {
			return fmt.Errorf("storage: node %d kid count %d implausible", id, nKids)
		}
		n := &s.nodes[i]
		n.Tag = uint16(tag)
		for k := uint64(0); k < nKids; k++ {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			if v&1 == 1 {
				recIdx, err := r.uvarint()
				if err != nil {
					return err
				}
				n.Kids = append(n.Kids, ValueChild(len(n.Values)))
				// Container resolved during the reconstruction walk.
				n.Values = append(n.Values, ValueRef{Container: -1, Index: int32(recIdx)})
			} else {
				kid := id + NodeID(v>>1)
				if uint64(kid) > nNodes || kid <= id {
					return fmt.Errorf("storage: node %d has bad child %d", id, kid)
				}
				n.Kids = append(n.Kids, NodeChild(kid))
			}
		}
	}
	return nil
}

// buildNodeIndex bulk-loads the B+ node index over the record array
// (records backend only; the succinct backend navigates by rank).
func (s *Store) buildNodeIndex() {
	keys := make([]uint64, len(s.nodes))
	vals := make([]int64, len(s.nodes))
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = int64(i)
	}
	s.Index = btree.BulkLoad(keys, vals)
}

// reconstructDerived rebuilds parents, subtree ends, levels, the
// structure summary with extents, the value-ref container fields, and
// (when the record backend stays resident) the B+ index.
func (s *Store) reconstructDerived(buildIndex bool) error {
	sum := &Summary{}
	s.Sum = sum
	contByPath := map[string]int32{}
	for i, c := range s.Containers {
		contByPath[c.Path] = int32(i)
	}
	fanTotal := map[int32]int{}

	resolveValues := func(id NodeID, sn *SummaryNode) error {
		n := &s.nodes[id-1]
		if len(n.Values) == 0 {
			return nil
		}
		var vsn *SummaryNode
		if isAttrName(s.Names[n.Tag]) {
			vsn = sn
		} else {
			vsn = sum.child(sn, "#text", true)
		}
		if vsn.Container < 0 {
			ci, ok := contByPath[vsn.Path()]
			if !ok {
				return fmt.Errorf("storage: no container for path %s", vsn.Path())
			}
			vsn.Container = ci
		}
		cont := s.Containers[vsn.Container]
		for vi := range n.Values {
			n.Values[vi].Container = vsn.Container
			idx := int(n.Values[vi].Index)
			if idx >= cont.Len() {
				return fmt.Errorf("storage: node %d value index %d out of range for %s",
					id, n.Values[vi].Index, cont.Path)
			}
			if owner := cont.recs[idx].Owner; owner != 0 && owner != id {
				return fmt.Errorf("storage: record %d of %s claimed by nodes %d and %d",
					idx, cont.Path, owner, id)
			}
			cont.recs[idx].Owner = id
		}
		return nil
	}

	type frame struct {
		id   NodeID
		kidI int
		sn   *SummaryNode
	}
	root := sum.child(nil, s.Names[s.nodes[0].Tag], true)
	root.Extent = append(root.Extent, 1)
	s.nodes[0].Parent = 0
	s.level[0] = 1
	if err := resolveValues(1, root); err != nil {
		return err
	}
	stack := []frame{{id: 1, sn: root}}
	visited := NodeID(1)

	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		n := &s.nodes[f.id-1]
		advanced := false
		for f.kidI < len(n.Kids) {
			k := n.Kids[f.kidI]
			f.kidI++
			if k.IsValue() {
				continue
			}
			kid := k.Node()
			if kid != visited+1 {
				return fmt.Errorf("storage: node %d is not in pre-order (expected %d)", kid, visited+1)
			}
			visited = kid
			s.nodes[kid-1].Parent = f.id
			s.level[kid-1] = s.level[f.id-1] + 1
			tag := s.Names[s.nodes[kid-1].Tag]
			ksn := sum.child(f.sn, tag, true)
			ksn.Extent = append(ksn.Extent, kid)
			if !isAttrName(tag) {
				fanTotal[f.sn.ID]++
			}
			if err := resolveValues(kid, ksn); err != nil {
				return err
			}
			stack = append(stack, frame{id: kid, sn: ksn})
			advanced = true
			break
		}
		if !advanced {
			s.end[f.id-1] = visited
			stack = stack[:len(stack)-1]
		}
	}
	if int(visited) != len(s.nodes) {
		return fmt.Errorf("storage: %d of %d nodes unreachable from the root", len(s.nodes)-int(visited), len(s.nodes))
	}

	for _, sn := range sum.Nodes() {
		sn.Count = len(sn.Extent)
		if sn.Count > 0 {
			sn.AvgFan = float64(fanTotal[sn.ID]) / float64(sn.Count)
		}
	}

	if buildIndex {
		s.buildNodeIndex()
	}
	return nil
}

func isAttrName(tag string) bool { return len(tag) > 0 && tag[0] == '@' }

// SaveFile writes the repository to a file, crash-safely (see
// WriteFileAtomic).
func (s *Store) SaveFile(path string) error {
	return WriteFileAtomic(path, s.AppendBinary(nil))
}

// WriteFileAtomic replaces the file at path with data so that a crash
// at any point leaves either the old file or the new one, never a torn
// mix: the bytes go to a temporary file in the same directory, which is
// fsynced and renamed over path, and the directory is fsynced so the
// rename itself is durable. Every repository, shard and segment file
// and every set manifest is written through it.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenFile loads a repository from a file.
func OpenFile(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadBinary(data)
}
