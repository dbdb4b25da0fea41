package xquec_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xquec"
	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/segment"
	"xquec/internal/shard"
	"xquec/internal/xmarkq"
)

// segDocs generates n distinct XMark documents sharing the <site> root
// — the append-segment corpus for the differential suite.
func segDocs(t *testing.T, n int, scale float64) [][]byte {
	t.Helper()
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: int64(50 + i)})
	}
	return docs
}

// segmentedDB builds a Database of `segs` segments by appending through
// the Writer, one Commit per document (the worst case for generation
// churn).
func segmentedDB(t *testing.T, docs [][]byte) *xquec.Database {
	t.Helper()
	base, err := xquec.Compress(docs[0], xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := w.DB()
	for _, doc := range docs[1:] {
		if err := w.Append(doc); err != nil {
			t.Fatal(err)
		}
		if db, err = w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Segments() != len(docs) {
		t.Fatalf("Segments() = %d, want %d", db.Segments(), len(docs))
	}
	return db
}

// TestAppendResultsIdentical is the tier-1 guarantee of the mutable
// repository: for EVERY benchmark query — scattered or fallback — a
// database grown by appends returns byte-identical results to a full
// re-ingest of the concatenated corpus, across segment counts {1,2,4}
// × baseline shard counts {1,2} × parallelism {1,4}.
func TestAppendResultsIdentical(t *testing.T) {
	all := segDocs(t, 4, 0.02)
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	for _, segs := range []int{1, 2, 4} {
		docs := all[:segs]
		concat, err := segment.Concat(docs...)
		if err != nil {
			t.Fatal(err)
		}
		segDB := segmentedDB(t, docs)
		for _, shards := range []int{1, 2} {
			baseline, err := xquec.Compress(concat, xquec.Options{Shards: shards})
			if err != nil {
				t.Fatalf("segs=%d shards=%d: %v", segs, shards, err)
			}
			for _, par := range []int{1, 4} {
				opts := xquec.QueryOptions{Parallelism: par}
				for _, q := range queries {
					want := execXML(t, baseline, q.Text, opts)
					got := execXML(t, segDB, q.Text, opts)
					if got != want {
						t.Errorf("segs=%d shards=%d par=%d %s: appended result differs\n got: %.200q\nwant: %.200q",
							segs, shards, par, q.ID, got, want)
					}
				}
			}
		}
	}
}

// TestAppendVMTreeOracle grows a database through the Writer one
// document per Commit and, after every Commit, checks each benchmark
// query against galaxlike — the DOM-tree evaluator over the
// uncompressed concatenation of the documents appended so far. It pins
// every intermediate snapshot the Writer hands out, where
// TestVMDifferentialMatrix checks only the final three-segment set.
func TestAppendVMTreeOracle(t *testing.T) {
	docs := segDocs(t, 3, 0.02)
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	base, err := xquec.Compress(docs[0], xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := w.DB()
	for segs := 1; segs <= len(docs); segs++ {
		if segs > 1 {
			if err := w.Append(docs[segs-1]); err != nil {
				t.Fatal(err)
			}
			if db, err = w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if db.Segments() != segs {
			t.Fatalf("Segments() = %d, want %d", db.Segments(), segs)
		}
		concat, err := segment.Concat(docs[:segs]...)
		if err != nil {
			t.Fatal(err)
		}
		ref := galaxlike.New(concat)
		ref.ParsePerQuery = false
		for _, q := range queries {
			want, wantErr := galaxlikeXML(ref, q.Text)
			got, err := evalWith(db, q.Text, 1)
			if (wantErr == nil) != (err == nil) {
				t.Fatalf("segs=%d %s: galaxlike err=%v, vm err=%v", segs, q.ID, wantErr, err)
			}
			if err != nil && !errors.Is(err, xquec.ErrEval) {
				t.Fatalf("segs=%d %s: vm error not ErrEval: %v", segs, q.ID, err)
			}
			if got != want {
				t.Errorf("segs=%d %s: vm differs from galaxlike\n    vm: %.200q\ngalaxlike: %.200q", segs, q.ID, got, want)
			}
		}
	}
}

// TestCompactionSnapshotIsolation streams a query over a multi-segment
// database while a compaction swaps the Writer's handle mid-stream:
// the reader's snapshot must stay intact (identical results, no block,
// no corruption), and the compacted handle must answer identically
// with a single segment. Run under -race this also proves the
// swap/read paths share no unsynchronized state.
func TestCompactionSnapshotIsolation(t *testing.T) {
	docs := segDocs(t, 4, 0.02)
	base, err := xquec.Compress(docs[0], xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[1:] {
		if err := w.Append(doc); err != nil {
			t.Fatal(err)
		}
	}
	db, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	const q = `FOR $p IN document("auction.xml")/site/people/person RETURN $p/name/text()`
	want := execXML(t, db, q, xquec.QueryOptions{})

	// Open the streaming cursor and consume one item BEFORE compaction.
	res, err := db.Execute(context.Background(), q, xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	first, ok, err := res.Next()
	if err != nil || !ok {
		t.Fatalf("first item: ok=%v err=%v", ok, err)
	}
	firstXML, err := first.XML()
	if err != nil {
		t.Fatal(err)
	}

	// Compact concurrently while the cursor is mid-stream.
	done := make(chan error, 1)
	var compacted *xquec.Database
	go func() {
		var cerr error
		compacted, cerr = w.Compact(context.Background())
		done <- cerr
	}()

	var sb strings.Builder
	sb.WriteString(firstXML)
	for {
		it, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		x, err := it.XML()
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString("\n")
		sb.WriteString(x)
	}
	if err := <-done; err != nil {
		t.Fatalf("compact: %v", err)
	}
	if got := sb.String(); got != want {
		t.Fatalf("mid-compaction stream corrupted:\n got %.200q\nwant %.200q", got, want)
	}
	// The old handle keeps answering from its snapshot...
	if got := execXML(t, db, q, xquec.QueryOptions{}); got != want {
		t.Fatal("old handle's snapshot changed after compaction")
	}
	// ...and the compacted handle answers identically with one segment.
	if compacted.Segments() != 1 {
		t.Fatalf("compacted Segments() = %d, want 1", compacted.Segments())
	}
	if got := execXML(t, compacted, q, xquec.QueryOptions{}); got != want {
		t.Fatal("compacted handle differs")
	}
	if compacted.TopologyKey() == db.TopologyKey() {
		t.Fatal("compaction did not roll the topology key")
	}
}

// TestWriterSaveOpenRoundTrip persists a segment set through a bound
// Writer and re-opens it through the sniffing Open (by extension and
// by content), asserting results and topology survive.
func TestWriterSaveOpenRoundTrip(t *testing.T) {
	docs := segDocs(t, 3, 0.02)
	base, err := xquec.Compress(docs[0], xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "auction.xqcg")
	w.BindFile(path)
	for _, doc := range docs[1:] {
		if err := w.Append(doc); err != nil {
			t.Fatal(err)
		}
	}
	db, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	const q = `FOR $i IN document("auction.xml")/site/regions/australia/item RETURN $i/name/text()`
	want := execXML(t, db, q, xquec.QueryOptions{})

	re, err := xquec.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Segmented() || re.Segments() != 3 {
		t.Fatalf("reopened: segmented=%v segments=%d", re.Segmented(), re.Segments())
	}
	if got := execXML(t, re, q, xquec.QueryOptions{}); got != want {
		t.Fatalf("round trip changed results:\n got %.200q\nwant %.200q", got, want)
	}
	if re.TopologyKey() == db.TopologyKey() {
		t.Fatal("distinct instances share a topology key")
	}
	suffix := func(k string) string { return k[strings.Index(k, ";"):] }
	if suffix(re.TopologyKey()) != suffix(db.TopologyKey()) {
		t.Fatalf("same layout, different topology: %q vs %q", re.TopologyKey(), db.TopologyKey())
	}

	// Content sniffing: a copy without the conventional extension still
	// opens as a segment set.
	alias := filepath.Join(dir, "alias.repo")
	data := readFileT(t, path)
	writeFileT(t, alias, data)
	// Segment files resolve relative to the manifest, so the alias must
	// live next to them (it does — same dir).
	re2, err := xquec.Open(alias)
	if err != nil {
		t.Fatal(err)
	}
	if !re2.Segmented() {
		t.Fatal("content sniffing missed a segment manifest")
	}

	// Appending K more documents to a reopened set keeps working.
	w2, err := xquec.NewWriter(re, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(docs[1]); err != nil {
		t.Fatal(err)
	}
	db4, err := w2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if db4.Segments() != 4 {
		t.Fatalf("reopened+appended Segments() = %d, want 4", db4.Segments())
	}
}

// TestOpenBytesManifestSniff covers the OpenBytes counterpart of Open's
// path sniffing: shard- and segment-set manifest bytes are recognized
// and rejected with the typed ErrCorruptRepository (a manifest
// references external files, it does not contain them), while real
// repository bytes keep loading.
func TestOpenBytesManifestSniff(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 60})
	dir := t.TempDir()

	// Shard-set manifest bytes.
	sharded, err := xquec.Compress(doc, xquec.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(dir, "s.xqcs")
	if err := sharded.SaveFile(shardPath); err != nil {
		t.Fatal(err)
	}
	_, err = xquec.OpenBytes(readFileT(t, shardPath))
	if !errors.Is(err, xquec.ErrCorruptRepository) {
		t.Fatalf("OpenBytes(shard manifest) err = %v, want ErrCorruptRepository", err)
	}
	if !strings.Contains(fmt.Sprint(err), "shard-set manifest") {
		t.Fatalf("error does not explain the mismatch: %v", err)
	}

	// Segment-set manifest bytes.
	base, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "g.xqcg")
	w.BindFile(segPath)
	if err := w.Append(datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 61})); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err = xquec.OpenBytes(readFileT(t, segPath))
	if !errors.Is(err, xquec.ErrCorruptRepository) {
		t.Fatalf("OpenBytes(segment manifest) err = %v, want ErrCorruptRepository", err)
	}
	if !strings.Contains(fmt.Sprint(err), "segment-set manifest") {
		t.Fatalf("error does not explain the mismatch: %v", err)
	}

	// Real repository bytes still load.
	re, err := xquec.OpenBytes(base.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if re.Segmented() || re.Sharded() {
		t.Fatal("plain repository misclassified")
	}
}

// TestWriterValidation exercises the write-path guard rails: mismatched
// root tags, attribute-carrying appended roots, and sharded databases.
func TestWriterValidation(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 62})
	db, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(db, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte(`<other><a>1</a></other>`)); err == nil {
		t.Fatal("append with mismatched root tag accepted")
	}
	if err := w.Append([]byte(`<site id="2"><a>1</a></site>`)); err == nil {
		t.Fatal("append with attributed root accepted")
	}
	if err := w.Append([]byte(`not xml at all`)); err == nil {
		t.Fatal("append of non-XML accepted")
	}
	if w.Pending() != 0 {
		t.Fatalf("rejected documents staged: pending=%d", w.Pending())
	}

	sharded, err := xquec.Compress(doc, xquec.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xquec.NewWriter(sharded, xquec.Options{}); err == nil {
		t.Fatal("writer over a sharded database accepted")
	}
}

// TestSegmentQueriesCounted checks that segment-set queries reach the
// process-wide scatter counters xquecd exports as xquecd_shard_*: a
// scattered query counts one scatter, one stream per segment and one
// merged item per result item; a declined query counts one fallback.
func TestSegmentQueriesCounted(t *testing.T) {
	db := segmentedDB(t, segDocs(t, 3, 0.01))
	s0 := shard.Snapshot()
	items := execXML(t, db, `FOR $p IN /site/people/person RETURN $p/name/text()`, xquec.QueryOptions{})
	s1 := shard.Snapshot()
	n := int64(strings.Count(items, "\n") + 1)
	if d := s1.ScatterQueries - s0.ScatterQueries; d != 1 {
		t.Errorf("scatter: ScatterQueries delta = %d, want 1", d)
	}
	if d := s1.FallbackQueries - s0.FallbackQueries; d != 0 {
		t.Errorf("scatter: FallbackQueries delta = %d, want 0", d)
	}
	if d := s1.ShardStreams - s0.ShardStreams; d != 3 {
		t.Errorf("scatter: ShardStreams delta = %d, want 3 (one per segment)", d)
	}
	if d := s1.MergedItems - s0.MergedItems; d != n {
		t.Errorf("scatter: MergedItems delta = %d, want %d", d, n)
	}

	execXML(t, db, `count(/site/people/person)`, xquec.QueryOptions{})
	s2 := shard.Snapshot()
	if d := s2.FallbackQueries - s1.FallbackQueries; d != 1 {
		t.Errorf("fallback: FallbackQueries delta = %d, want 1", d)
	}
	if d := s2.ScatterQueries - s1.ScatterQueries; d != 0 {
		t.Errorf("fallback: ScatterQueries delta = %d, want 0", d)
	}
	if d := s2.ShardStreams - s1.ShardStreams; d != 0 {
		t.Errorf("fallback: ShardStreams delta = %d, want 0", d)
	}
}

// TestFailedSaveKeepsPreviousGeneration interrupts a save partway and
// checks that the previous generation survives on disk.
//
// segments: a commit's save fails because the next segment file's path
// is occupied by a directory; the manifest stays byte-identical and
// Open answers as before.
//
// shards: the disk is left as a crash would leave it after generation
// B's first member file landed next to generation A's files. The two
// generations share a dictionary and subtree counts and differ only in
// their values. Open must answer generation A's results or fail with
// ErrCorruptRepository — never answer with a mix of the two.
func TestFailedSaveKeepsPreviousGeneration(t *testing.T) {
	t.Run("segments", func(t *testing.T) {
		docs := segDocs(t, 3, 0.01)
		base, err := xquec.Compress(docs[0], xquec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		w, err := xquec.NewWriter(base, xquec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "repo.xqcg")
		w.BindFile(path)
		if err := w.Append(docs[1]); err != nil {
			t.Fatal(err)
		}
		prev, err := w.Commit()
		if err != nil {
			t.Fatal(err)
		}
		const q = `FOR $p IN /site/people/person RETURN $p/name/text()`
		want := execXML(t, prev, q, xquec.QueryOptions{})
		manifest := readFileT(t, path)

		// The third segment (naming sequence 2) cannot be written.
		if err := os.Mkdir(filepath.Join(dir, "repo.seg-000002.xqc"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(docs[2]); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Commit(); err == nil {
			t.Fatal("commit over an unwritable segment path succeeded")
		}
		if got := readFileT(t, path); string(got) != string(manifest) {
			t.Fatalf("failed save changed the manifest:\n got: %s\nwant: %s", got, manifest)
		}
		if w.DB() != prev {
			t.Fatal("failed commit published a new handle")
		}
		re, err := xquec.Open(path)
		if err != nil {
			t.Fatalf("reopen after failed save: %v", err)
		}
		if re.Segments() != 2 {
			t.Fatalf("reopened Segments() = %d, want 2", re.Segments())
		}
		if got := execXML(t, re, q, xquec.QueryOptions{}); got != want {
			t.Fatalf("reopened answers differ from the previous generation")
		}
	})

	t.Run("shards", func(t *testing.T) {
		docA := segDocs(t, 1, 0.01)[0]
		docB := bytes.ReplaceAll(docA, []byte("<name>"), []byte("<name>B "))
		const q = `FOR $p IN /site/people/person RETURN $p/name/text()`
		dir := t.TempDir()
		path := filepath.Join(dir, "r.xqcs")
		// save persists a 2-shard set of doc at path and returns its
		// answer to q and the directory's files afterwards.
		save := func(doc []byte) (string, map[string][]byte) {
			db, err := xquec.Compress(doc, xquec.Options{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				files[e.Name()] = readFileT(t, filepath.Join(dir, e.Name()))
			}
			return execXML(t, db, q, xquec.QueryOptions{}), files
		}
		wantA, genA := save(docA)
		wantB, genB := save(docB)
		if wantA == wantB {
			t.Fatal("the two generations answer alike; the input cannot detect a mix")
		}

		// B's saves write member files in member order, so the first
		// member file B created or changed is the one that landed.
		var landed string
		for name, data := range genB {
			if name != "r.xqcs" && !bytes.Equal(data, genA[name]) && (landed == "" || name < landed) {
				landed = name
			}
		}
		crashed := t.TempDir()
		for name, data := range genA {
			writeFileT(t, filepath.Join(crashed, name), data)
		}
		writeFileT(t, filepath.Join(crashed, landed), genB[landed])

		re, err := xquec.Open(filepath.Join(crashed, "r.xqcs"))
		if err != nil {
			if !errors.Is(err, xquec.ErrCorruptRepository) {
				t.Fatalf("open after interrupted save: %v, want generation A or ErrCorruptRepository", err)
			}
			return
		}
		if got := execXML(t, re, q, xquec.QueryOptions{}); got != wantA {
			t.Fatalf("open after interrupted save answered neither generation A nor an error:\n got %.300q\nwant %.300q", got, wantA)
		}
	})
}

// TestLegacyManifestsOpen pins the manifest formats written before
// shard and segment sets shared one manifest: an xqcs1 shard-set and an
// xqcg1 segment-set manifest, each with exactly the field set those
// formats had, written next to freshly saved members, must open and
// answer byte-identically to the in-memory database.
func TestLegacyManifestsOpen(t *testing.T) {
	type xqcs1 struct {
		Format         string   `json:"format"`
		Shards         []string `json:"shards"`
		PartitionLevel int      `json:"partition_level"`
		Routing        string   `json:"routing"`
		Subtrees       int      `json:"subtrees"`
		SubtreeCounts  []int    `json:"subtree_counts"`
		DictHash       string   `json:"dict_hash"`
		OriginalSize   int      `json:"original_size"`
	}
	type xqcg1 struct {
		Format        string   `json:"format"`
		RootTag       string   `json:"root_tag"`
		Segments      []string `json:"segments"`
		DictHashes    []string `json:"dict_hashes"`
		OriginalSizes []int    `json:"original_sizes"`
		Generation    int      `json:"generation"`
		Sequence      int      `json:"sequence"`
	}
	dir := t.TempDir()
	docs := segDocs(t, 3, 0.01)

	sharded, err := xquec.Compress(docs[0], xquec.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.SaveFile(filepath.Join(dir, "s.xqcs")); err != nil {
		t.Fatal(err)
	}
	sm, err := shard.ReadManifest(filepath.Join(dir, "s.xqcs"))
	if err != nil {
		t.Fatal(err)
	}
	legacyShards := xqcs1{"xqcs1", sm.Members, sm.PartitionLevel, sm.Routing, sm.Subtrees, sm.SubtreeCounts, sm.DictHashes[0], sm.OriginalSize}

	segmented := segmentedDB(t, docs)
	if err := segmented.SaveFile(filepath.Join(dir, "g.xqcg")); err != nil {
		t.Fatal(err)
	}
	gm, err := shard.ReadManifest(filepath.Join(dir, "g.xqcg"))
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{len(docs[0]), len(docs[1]), len(docs[2])}
	legacySegments := xqcg1{"xqcg1", gm.RootTag, gm.Members, gm.DictHashes, sizes, gm.Generation, gm.Sequence}

	queries := append(xmarkq.Queries()[:4], xmarkq.Query{ID: "people", Text: `FOR $p IN /site/people/person RETURN $p/name/text()`})
	for _, tc := range []struct {
		path     string
		manifest any
		db       *xquec.Database
	}{
		{filepath.Join(dir, "legacy.xqcs"), legacyShards, sharded},
		{filepath.Join(dir, "legacy.xqcg"), legacySegments, segmented},
	} {
		data, err := json.MarshalIndent(tc.manifest, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		writeFileT(t, tc.path, data)
		re, err := xquec.Open(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if re.Sharded() != tc.db.Sharded() || re.Segmented() != tc.db.Segmented() ||
			re.Shards() != tc.db.Shards() || re.Segments() != tc.db.Segments() ||
			re.Stats().OriginalBytes != tc.db.Stats().OriginalBytes {
			t.Fatalf("%s: opened as a different topology: %+v", tc.path, re.Stats())
		}
		for _, q := range queries {
			if got, want := execXML(t, re, q.Text, xquec.QueryOptions{}), execXML(t, tc.db, q.Text, xquec.QueryOptions{}); got != want {
				t.Errorf("%s %s: answer differs from the in-memory database\n got %.200q\nwant %.200q", tc.path, q.ID, got, want)
			}
		}
	}
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFileT(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func execXML(t *testing.T, db *xquec.Database, q string, opts xquec.QueryOptions) string {
	t.Helper()
	res, err := db.Execute(context.Background(), q, opts)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	defer res.Close()
	var sb strings.Builder
	if _, err := res.WriteXML(&sb); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return sb.String()
}
