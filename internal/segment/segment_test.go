package segment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

func mustLoad(t *testing.T, doc string, dict []string) *storage.Store {
	t.Helper()
	st, err := storage.Load([]byte(doc), storage.LoadOptions{Dictionary: dict})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testSet(t *testing.T) *shard.Set {
	t.Helper()
	base, err := Base(mustLoad(t, `<site><a><n>1</n></a></site>`, nil))
	if err != nil {
		t.Fatal(err)
	}
	set, err := Append(base, [][]byte{
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
	if len(set.Stores) != 3 {
		t.Fatalf("segments = %d", len(set.Stores))
	}
	if set.Man.Generation != 2 || set.Man.Kind != shard.KindSegment {
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
	if _, err := shard.NewSet(set.Man, set.Stores, ""); err != nil {
		t.Fatalf("validate: %v", err)
	}

	// Append validation failures leave no trace.
	if _, err := Append(set, [][]byte{[]byte(`<other/>`)}, storage.LoadOptions{}); err == nil {
		t.Fatal("root mismatch should fail")
	}
	if _, err := Append(set, nil, storage.LoadOptions{}); err == nil {
		t.Fatal("empty append should fail")
	}
	if len(set.Stores) != 3 || len(set.Man.Members) != 3 {
		t.Fatalf("receiver mutated: %d segments", len(set.Stores))
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
	compacted, err := Compact(set, nil, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted.Stores) != 1 || compacted.Man.Generation != set.Man.Generation+1 {
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
	if len(set.Stores) != 3 {
		t.Fatalf("receiver mutated: %d segments", len(set.Stores))
	}

	// Empty and attributed roots splice like segment.Concat.
	docs := []string{`<site k="v"/>`, `<site/>`, `<site>t<c/></site>`}
	set, err = Base(mustLoad(t, docs[0], nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[1:] {
		if set, err = Append(set, [][]byte{[]byte(doc)}, storage.LoadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if xml, err = set.FuseXML(); err != nil || string(xml) != `<site k="v">t<c/></site>` {
		t.Fatalf("FuseXML = %s, %v", xml, err)
	}
}

func TestSetSaveOpenValidateGC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus"+shard.SegmentManifestExt)
	set := testSet(t)
	saved, err := set.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	if set.Man.Members[0] != "" {
		t.Fatal("Save mutated the receiver's manifest")
	}
	opened, err := shard.OpenSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(opened.Stores) != 3 || opened.TopologyKey() != set.TopologyKey() {
		t.Fatalf("opened = %d segments, key %s vs %s", len(opened.Stores), opened.TopologyKey(), set.TopologyKey())
	}

	// A commit writes only its new segment.
	grown, err := Append(saved, [][]byte{[]byte(`<site><c/></site>`)}, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := segFiles(t, dir)
	if grown, err = grown.Save(path); err != nil {
		t.Fatal(err)
	}
	after := segFiles(t, dir)
	for name, mod := range before {
		if after[name] != mod {
			t.Fatalf("saving an append rewrote %s", name)
		}
	}
	if len(after) != 4 {
		t.Fatalf("segment files after append = %v, want 4", after)
	}

	// Compaction + save drops the superseded segment files.
	compacted, err := Compact(grown, nil, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compacted.Save(path); err != nil {
		t.Fatal(err)
	}
	if n := len(segFiles(t, dir)); n != 1 {
		t.Fatalf("stale segment files survived GC: %d", n)
	}

	// A segment from a different lineage is rejected at open.
	reopened, err := shard.OpenSet(path)
	if err != nil {
		t.Fatal(err)
	}
	foreign := mustLoad(t, `<site><z/></site>`, nil)
	if err := foreign.SaveFile(filepath.Join(dir, reopened.Man.Members[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.OpenSet(path); err == nil || !strings.Contains(err.Error(), "dictionary hash") {
		t.Fatalf("lineage mismatch err = %v", err)
	}
}

// segFiles maps each segment file in dir to its modification time.
func segFiles(t *testing.T, dir string) map[string]time.Time {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]time.Time{}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".seg-") {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = info.ModTime()
		}
	}
	return out
}
