package shard_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xquec/internal/shard"
	"xquec/internal/storage"
)

// Well-formed manifests of every format ParseManifest reads.
const (
	shardManifest = `{"format":"xqcp1","kind":"shard","members":["r.shard-000000.xqc","r.shard-000001.xqc"],
		"dict_hashes":["h","h"],"partition_level":2,"original_size":9,"generation":1,"sequence":2,
		"routing":"roundrobin","subtrees":3,"subtree_counts":[2,1]}`
	segmentManifest = `{"format":"xqcp1","kind":"segment","members":["r.seg-000000.xqc","r.seg-000001.xqc"],
		"dict_hashes":["h0","h1"],"partition_level":2,"original_size":30,"generation":2,"sequence":2,"root_tag":"site"}`
	legacyShardManifest = `{"format":"xqcs1","shards":["r.shard-000.xqc","r.shard-001.xqc"],"partition_level":2,
		"routing":"roundrobin","subtrees":3,"subtree_counts":[2,1],"dict_hash":"h","original_size":9}`
	legacySegmentManifest = `{"format":"xqcg1","root_tag":"site","segments":["r.seg-000000.xqc","r.seg-000001.xqc"],
		"dict_hashes":["h0","h1"],"original_sizes":[10,20],"generation":2,"sequence":2}`
)

func TestManifestRoundTripAndValidation(t *testing.T) {
	good := []struct {
		name, json string
		want       shard.Manifest
	}{
		{"shard", shardManifest, shard.Manifest{
			Format: shard.ManifestFormat, Kind: shard.KindShard,
			Members:    []string{"r.shard-000000.xqc", "r.shard-000001.xqc"},
			DictHashes: []string{"h", "h"}, PartitionLevel: 2, OriginalSize: 9, Generation: 1, Sequence: 2,
			Routing: "roundrobin", Subtrees: 3, SubtreeCounts: []int{2, 1},
		}},
		{"segment", segmentManifest, shard.Manifest{
			Format: shard.ManifestFormat, Kind: shard.KindSegment,
			Members:    []string{"r.seg-000000.xqc", "r.seg-000001.xqc"},
			DictHashes: []string{"h0", "h1"}, PartitionLevel: 2, OriginalSize: 30, Generation: 2, Sequence: 2,
			RootTag: "site",
		}},
		{"legacy shard", legacyShardManifest, shard.Manifest{
			Format: shard.ManifestFormat, Kind: shard.KindShard,
			Members:    []string{"r.shard-000.xqc", "r.shard-001.xqc"},
			DictHashes: []string{"h", "h"}, PartitionLevel: 2, OriginalSize: 9,
			Routing: "roundrobin", Subtrees: 3, SubtreeCounts: []int{2, 1},
		}},
		{"legacy segment", legacySegmentManifest, shard.Manifest{
			Format: shard.ManifestFormat, Kind: shard.KindSegment,
			Members:    []string{"r.seg-000000.xqc", "r.seg-000001.xqc"},
			DictHashes: []string{"h0", "h1"}, PartitionLevel: 2, OriginalSize: 30, Generation: 2, Sequence: 2,
			RootTag: "site",
		}},
	}
	for _, tc := range good {
		got, err := shard.ParseManifest([]byte(tc.json))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(*got, tc.want) {
			t.Errorf("%s: parsed %+v, want %+v", tc.name, *got, tc.want)
		}
		data, err := shard.MarshalManifest(got)
		if err != nil {
			t.Fatal(err)
		}
		again, err := shard.ParseManifest(data)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Errorf("%s: re-parse = %+v, %v", tc.name, again, err)
		}
	}

	bad := []struct {
		name, json, want string
	}{
		{"not json", `{`, "not valid JSON"},
		{"wrong format", `{"format":"xqcz9","root_tag":"r","segments":["s"],"dict_hashes":["h"],"original_sizes":[1]}`, "manifest format"},
		{"no segments", `{"format":"xqcg1","root_tag":"r","segments":[],"dict_hashes":[],"original_sizes":[]}`, "no members"},
		{"no root", `{"format":"xqcg1","segments":["s"],"dict_hashes":["h"],"original_sizes":[1]}`, "no root tag"},
		{"hash mismatch", `{"format":"xqcg1","root_tag":"r","segments":["s"],"dict_hashes":[],"original_sizes":[1]}`, "dictionary hashes"},
		{"size mismatch", `{"format":"xqcg1","root_tag":"r","segments":["s"],"dict_hashes":["h"],"original_sizes":[]}`, "original sizes"},
		{"no shards", `{"format":"xqcs1","shards":[],"partition_level":2,"routing":"roundrobin","subtree_counts":[],"dict_hash":"h"}`, "no members"},
		{"unknown routing", `{"format":"xqcs1","shards":["s"],"partition_level":2,"routing":"hash","subtree_counts":[0],"dict_hash":"h"}`, "routing"},
		{"subtree counts", `{"format":"xqcs1","shards":["s","t"],"partition_level":2,"routing":"roundrobin","subtree_counts":[0],"dict_hash":"h"}`, "subtree counts"},
		{"partition level", `{"format":"xqcs1","shards":["s"],"partition_level":1,"routing":"roundrobin","subtree_counts":[0],"dict_hash":"h"}`, "partition level"},
		{"mixed shard dictionaries", `{"format":"xqcp1","kind":"shard","members":["s","t"],"dict_hashes":["h","g"],"partition_level":2,"routing":"roundrobin","subtree_counts":[0,0]}`, "one dictionary"},
		{"unknown kind", `{"format":"xqcp1","kind":"blob","members":["s"],"dict_hashes":["h"],"partition_level":2}`, "unknown set kind"},
		{"segment level", `{"format":"xqcp1","kind":"segment","members":["s"],"dict_hashes":["h"],"partition_level":3,"root_tag":"r"}`, "partition level"},
		{"duplicate member", `{"format":"xqcg1","root_tag":"r","segments":["s","s"],"dict_hashes":["h","h"],"original_sizes":[1,1]}`, "listed twice"},
	}
	// Member names must stay inside the manifest's directory, in every
	// format.
	for _, name := range []string{`../outside/r.shard-000.xqc`, `/abs/r.xqc`, `sub/r.xqc`, `..\\r.xqc`, `.`, `..`, ``} {
		quoted := `"` + name + `"`
		bad = append(bad,
			struct{ name, json, want string }{"xqcs1 member " + name,
				`{"format":"xqcs1","shards":[` + quoted + `],"partition_level":2,"routing":"roundrobin","subtree_counts":[0],"dict_hash":"h"}`, "not a file name"},
			struct{ name, json, want string }{"xqcg1 member " + name,
				`{"format":"xqcg1","root_tag":"r","segments":[` + quoted + `],"dict_hashes":["h"],"original_sizes":[1]}`, "not a file name"},
			struct{ name, json, want string }{"xqcp1 member " + name,
				`{"format":"xqcp1","kind":"segment","members":[` + quoted + `],"dict_hashes":["h"],"partition_level":2,"root_tag":"r"}`, "not a file name"},
		)
	}
	for _, tc := range bad {
		if _, err := shard.ParseManifest([]byte(tc.json)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// FuzzParseManifest: no input panics, and an accepted manifest
// marshals and re-parses to the same value.
func FuzzParseManifest(f *testing.F) {
	for _, seed := range []string{shardManifest, segmentManifest, legacyShardManifest, legacySegmentManifest,
		`{"format":"xqcs1","shards":["../x"]}`, `{"format":"xqcp1","kind":"segment","subtree_counts":[]}`, `{`, ``} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := shard.ParseManifest(data)
		if err != nil {
			return
		}
		out, err := shard.MarshalManifest(m)
		if err != nil {
			t.Fatalf("marshal accepted manifest: %v", err)
		}
		again, err := shard.ParseManifest(out)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", out, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the manifest:\n got %+v\nwant %+v", again, m)
		}
	})
}

func TestIsMemberFile(t *testing.T) {
	for name, want := range map[string]bool{
		"r.shard-000000.xqc":            true,
		"r.seg-000012.xqc":              true,
		"r.shard-000.xqc":               true, // fixed names of older shard saves
		"a.b.seg-1.xqc":                 true,
		"r.xqc":                         false,
		"r.shard-.xqc":                  false,
		"r.shard-00a.xqc":               false,
		"r.part-000000.xqc":             false,
		"r.seg-000000.xqcg":             false,
		"r.shard-000000.shard-1x.xqc":   false,
		"shard-000000.xqc":              false,
		".r.shard-000000.xqc.tmp-12345": false,
	} {
		if got := shard.IsMemberFile(name); got != want {
			t.Errorf("IsMemberFile(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestSaveNeverOverwritesReferencedMembers saves an unrelated set over
// an existing one: the new members take names the old manifest does
// not reference, the old generation's files are untouched until the
// manifest swaps and removed after, and saving the returned set again
// rewrites no member.
func TestSaveNeverOverwritesReferencedMembers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r"+shard.ManifestExt)
	genA, err := shard.Build([]byte(`<p><n>alice</n><n>bob</n><n>carol</n><n>dave</n></p>`), 2, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	savedA, err := genA.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	if genA.Man.Members[0] != "" {
		t.Fatal("Save mutated the receiver's manifest")
	}
	genB, err := shard.Build([]byte(`<p><n>ALICE</n><n>BOB</n><n>CAROL</n><n>DAVE</n></p>`), 2, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	savedB, err := genB.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range savedA.Man.Members {
		for _, b := range savedB.Man.Members {
			if a == b {
				t.Fatalf("generation B reused member name %s", a)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, a)); !os.IsNotExist(err) {
			t.Fatalf("superseded member %s not removed: %v", a, err)
		}
	}

	mods := map[string]time.Time{}
	for _, name := range savedB.Man.Members {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		mods[name] = info.ModTime()
	}
	again, err := savedB.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Man.Members, savedB.Man.Members) {
		t.Fatalf("re-save renamed members: %v -> %v", savedB.Man.Members, again.Man.Members)
	}
	for name, mod := range mods {
		if info, err := os.Stat(filepath.Join(dir, name)); err != nil || !info.ModTime().Equal(mod) {
			t.Fatalf("re-save rewrote %s", name)
		}
	}
}
