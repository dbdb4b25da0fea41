package segment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xquec/internal/shard"
	"xquec/internal/storage"
)

func TestSplitDoc(t *testing.T) {
	cases := []struct {
		name, doc           string
		root, open, inner   string
		hasAttrs, selfClose bool
		wantErr             string
	}{
		{name: "plain", doc: `<site><a/></site>`,
			root: "site", open: "<site>", inner: "<a/>"},
		{name: "prolog", doc: "<?xml version=\"1.0\"?>\n<!-- c -->\n<site>x</site>\n",
			root: "site", open: "<site>", inner: "x"},
		{name: "doctype with subset", doc: `<!DOCTYPE site [<!ENTITY e "v">]><site>y</site>`,
			root: "site", open: "<site>", inner: "y"},
		{name: "attributed root", doc: `<site id="1" k='a>b'><c/></site>`,
			root: "site", open: `<site id="1" k='a>b'>`, inner: "<c/>", hasAttrs: true},
		{name: "self-closing", doc: `<site/>`,
			root: "site", open: "<site>", inner: "", selfClose: true},
		{name: "self-closing with attrs", doc: `<site id="1"/>`,
			root: "site", open: `<site id="1">`, inner: "", hasAttrs: true, selfClose: true},
		{name: "nested same tag", doc: `<site>a<site>b</site>c</site>`,
			root: "site", open: "<site>", inner: "a<site>b</site>c"},
		{name: "empty", doc: ``, wantErr: "no root element"},
		{name: "unclosed", doc: `<site><a/>`, wantErr: "never closed"},
		{name: "trailing content", doc: `<site/><extra/>`, wantErr: "trailing content"},
		{name: "unterminated tag", doc: `<site`, wantErr: "unterminated root start tag"},
	}
	for _, tc := range cases {
		p, err := splitDoc([]byte(tc.doc))
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if p.root != tc.root || string(p.open) != tc.open || string(p.inner) != tc.inner ||
			p.hasAttrs != tc.hasAttrs || p.selfClose != tc.selfClose {
			t.Errorf("%s: got root=%q open=%q inner=%q attrs=%v self=%v",
				tc.name, p.root, p.open, p.inner, p.hasAttrs, p.selfClose)
		}
	}
}

func TestConcat(t *testing.T) {
	out, err := Concat(
		[]byte(`<site lang="en"><a>1</a></site>`),
		[]byte(`<?xml version="1.0"?><site><b>2</b></site>`),
		[]byte(`<site/>`),
		[]byte(`<site><c>3</c></site>`),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := `<site lang="en"><a>1</a><b>2</b><c>3</c></site>`
	if string(out) != want {
		t.Fatalf("Concat = %s, want %s", out, want)
	}

	if _, err := Concat([]byte(`<site/>`), []byte(`<other/>`)); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("root mismatch err = %v", err)
	}
	if _, err := Concat([]byte(`<site/>`), []byte(`<site id="2"/>`)); err == nil || !strings.Contains(err.Error(), "attributes") {
		t.Fatalf("attributed append err = %v", err)
	}
	if _, err := Concat(); err == nil {
		t.Fatal("empty Concat should error")
	}
}

func TestManifestRoundTripAndValidation(t *testing.T) {
	m := &Manifest{
		Format:        ManifestFormat,
		RootTag:       "site",
		Segments:      []string{"a.seg-000000.xqc", "a.seg-000001.xqc"},
		DictHashes:    []string{shard.DictionaryHash([]string{"site"}), shard.DictionaryHash([]string{"site", "a"})},
		OriginalSizes: []int{10, 20},
		Generation:    2,
		Sequence:      2,
	}
	data, err := MarshalManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.RootTag != m.RootTag || got.Generation != 2 || len(got.Segments) != 2 {
		t.Fatalf("round trip = %+v", got)
	}

	bad := []struct {
		name, json, want string
	}{
		{"not json", `{`, "not valid JSON"},
		{"wrong format", `{"format":"xqcs1","root_tag":"r","segments":["s"],"dict_hashes":["h"],"original_sizes":[1]}`, "manifest format"},
		{"no segments", `{"format":"xqcg1","root_tag":"r","segments":[],"dict_hashes":[],"original_sizes":[]}`, "no segments"},
		{"no root", `{"format":"xqcg1","segments":["s"],"dict_hashes":["h"],"original_sizes":[1]}`, "no root tag"},
		{"hash mismatch", `{"format":"xqcg1","root_tag":"r","segments":["s"],"dict_hashes":[],"original_sizes":[1]}`, "dictionary hashes"},
		{"size mismatch", `{"format":"xqcg1","root_tag":"r","segments":["s"],"dict_hashes":["h"],"original_sizes":[]}`, "original sizes"},
	}
	for _, tc := range bad {
		if _, err := ParseManifest([]byte(tc.json)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func mustLoad(t *testing.T, doc string, dict []string) *storage.Store {
	t.Helper()
	st, err := storage.Load([]byte(doc), storage.LoadOptions{Dictionary: dict})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testSet(t *testing.T) *Set {
	t.Helper()
	base, err := NewBase(mustLoad(t, `<site><a><n>1</n></a></site>`, nil))
	if err != nil {
		t.Fatal(err)
	}
	set, err := base.Append([][]byte{
		[]byte(`<site><a><n>2</n></a></site>`),
		[]byte(`<site><b><n>3</n></b></site>`),
	}, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestSetAppendSharesDictionaryChain(t *testing.T) {
	set := testSet(t)
	if set.Segments() != 3 {
		t.Fatalf("segments = %d", set.Segments())
	}
	if set.Man.Generation != 2 || set.Man.Sequence != 3 {
		t.Fatalf("manifest = %+v", set.Man)
	}
	for i := 1; i < len(set.Stores); i++ {
		prev, cur := set.Stores[i-1].Names, set.Stores[i].Names
		if len(cur) < len(prev) {
			t.Fatalf("segment %d dictionary shrinks", i)
		}
		for j := range prev {
			if cur[j] != prev[j] {
				t.Fatalf("segment %d name %d = %q, want %q", i, j, cur[j], prev[j])
			}
		}
	}
	if err := set.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}

	// Append validation failures leave no trace.
	if _, err := set.Append([][]byte{[]byte(`<other/>`)}, storage.LoadOptions{}); err == nil {
		t.Fatal("root mismatch should fail")
	}
	if _, err := set.Append(nil, storage.LoadOptions{}); err == nil {
		t.Fatal("empty append should fail")
	}
	if set.Segments() != 3 {
		t.Fatalf("receiver mutated: %d segments", set.Segments())
	}
}

func TestSetFuseAndCompact(t *testing.T) {
	set := testSet(t)
	xml, err := set.FuseXML()
	if err != nil {
		t.Fatal(err)
	}
	want := `<site><a><n>1</n></a><a><n>2</n></a><b><n>3</n></b></site>`
	if string(xml) != want {
		t.Fatalf("FuseXML = %s, want %s", xml, want)
	}
	compacted, err := set.Compact(nil, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Segments() != 1 || compacted.Man.Generation != set.Man.Generation+1 {
		t.Fatalf("compacted = %+v", compacted.Man)
	}
	if compacted.TopologyKey() == set.TopologyKey() {
		t.Fatal("compaction must roll the topology key")
	}
	cxml, err := compacted.FuseXML()
	if err != nil {
		t.Fatal(err)
	}
	if string(cxml) != want {
		t.Fatalf("compacted corpus = %s, want %s", cxml, want)
	}
	// The old set is untouched.
	if set.Segments() != 3 {
		t.Fatalf("receiver mutated: %d segments", set.Segments())
	}
}

func TestSetSaveOpenValidateGC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus"+ManifestExt)
	set := testSet(t)
	if err := set.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Segments() != 3 || opened.TopologyKey() != set.TopologyKey() {
		t.Fatalf("opened = %d segments, key %s vs %s", opened.Segments(), opened.TopologyKey(), set.TopologyKey())
	}

	// Compaction + save drops the superseded segment files.
	compacted, err := set.Compact(nil, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := compacted.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range entries {
		if strings.Contains(e.Name(), ".seg-") {
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Fatalf("stale segment files survived GC: %d", segFiles)
	}

	// A segment from a different lineage is rejected at open.
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	foreign := mustLoad(t, `<site><z/></site>`, nil)
	if err := foreign.SaveFile(filepath.Join(dir, reopened.Man.Segments[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "dictionary hash") {
		t.Fatalf("lineage mismatch err = %v", err)
	}
}
