package shard_test

import (
	"context"
	"strings"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/shard"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

func xmarkDoc(t *testing.T) []byte {
	t.Helper()
	return xmarkDocSeed(0.05, 41)
}

func xmarkDocSeed(scale float64, seed int64) []byte {
	return datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: seed})
}

// unshardedXML evaluates the query on a single whole-corpus store.
func unshardedXML(t *testing.T, src []byte, query string) string {
	t.Helper()
	st, err := storage.Load(src, storage.LoadOptions{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	expr, err := xquery.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := engine.New(st).EvalStream(expr)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	defer res.Close()
	var sb strings.Builder
	if _, err := res.WriteXML(&sb); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return sb.String()
}

func TestSplitRoundTrip(t *testing.T) {
	src := xmarkDoc(t)
	for _, shards := range []int{1, 2, 4, 8} {
		set, err := shard.Build(src, shards, storage.LoadOptions{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		fusedXML, err := set.FuseXML()
		if err != nil {
			t.Fatalf("shards=%d fuse: %v", shards, err)
		}
		// The fused XML must re-ingest into a store equivalent to the
		// original: compare canonical serializations.
		orig, err := storage.Load(src, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fused, err := storage.Load(fusedXML, storage.LoadOptions{})
		if err != nil {
			t.Fatalf("shards=%d reload fused: %v", shards, err)
		}
		a, err := orig.Serialize(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fused.Serialize(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("shards=%d: fused corpus differs from original (%d vs %d bytes)", shards, len(a), len(b))
		}
	}
}

func TestScatterMatchesUnsharded(t *testing.T) {
	src := xmarkDoc(t)
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	want := map[string]string{}
	for _, q := range queries {
		want[q.ID] = unshardedXML(t, src, q.Text)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		set, err := shard.Build(src, shards, storage.LoadOptions{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		co := shard.NewCoordinator(set)
		for _, q := range queries {
			expr, err := xquery.Parse(q.Text)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			dec := shard.Analyze(expr, set)
			if !dec.Scatter {
				t.Logf("shards=%d %s: fallback (%s)", shards, q.ID, dec.Reason)
				continue
			}
			cur, err := co.Scatter(context.Background(), q.Text, shard.Options{})
			if err != nil {
				t.Fatalf("shards=%d %s: scatter: %v", shards, q.ID, err)
			}
			var sb strings.Builder
			if _, err := cur.WriteXML(&sb); err != nil {
				t.Fatalf("shards=%d %s: merge: %v", shards, q.ID, err)
			}
			cur.Close()
			if sb.String() != want[q.ID] {
				t.Errorf("shards=%d %s: scattered result differs from unsharded\n got: %.200q\nwant: %.200q",
					shards, q.ID, sb.String(), want[q.ID])
			}
		}
	}
}

func analyzeQ(t *testing.T, set *shard.Set, q string) shard.Decision {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return shard.Analyze(expr, set)
}

// TestAnalyzeSegments runs the analyzer on a segment set's view:
// partition level 2, root attributes held by the base segment only.
func TestAnalyzeSegments(t *testing.T) {
	set := buildSegments(t, [][]byte{
		[]byte(`<site><a><n>1</n></a></site>`),
		[]byte(`<site><a><n>2</n></a></site>`),
		[]byte(`<site><b><n>3</n></b></site>`),
	}).View()
	scatter := []string{
		`/site/a/n`,
		`//n`,
		`/site/a/n/text()`,
		`FOR $x IN /site/a RETURN $x/n`,
		`FOR $x IN /site/a WHERE $x/n > 1 RETURN $x`,
		`/site/a/n[1]`, // positional below the root-child level: per-<a> position
	}
	for _, q := range scatter {
		if d := analyzeQ(t, set, q); !d.Scatter {
			t.Errorf("%q: not scattered: %s", q, d.Reason)
		}
	}
	reject := []struct{ q, reason string }{
		{`/site`, "root"},
		{`/site[a]`, "root step"},
		{`/site/a[2]`, "positional"},
		{`/site/a[position() = last()]`, "positional"},
		{`FOR $x IN /site/a ORDER BY $x/n RETURN $x`, "ORDER BY"},
		{`LET $y := /site/b FOR $x IN /site/a RETURN $x`, "FOR"},
		{`FOR $x IN /site/a RETURN /site/b`, "more than one root path"},
	}
	for _, tc := range reject {
		if d := analyzeQ(t, set, tc.q); d.Scatter {
			t.Errorf("%q: scattered, want reject", tc.q)
		} else if !strings.Contains(d.Reason, tc.reason) {
			t.Errorf("%q: reason = %q, want mention of %q", tc.q, d.Reason, tc.reason)
		}
	}
}

// TestAnalyzeSpineAttrs pins the one topology fact the analyzer reads
// besides the partition level: a root attribute is replicated in every
// shard (reject) but held only by the base segment (scatter).
func TestAnalyzeSpineAttrs(t *testing.T) {
	doc := []byte(`<site lang="en"><a>1</a><a>2</a><a>3</a><a>4</a></site>`)
	shards, err := shard.Build(doc, 2, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if shards.Man.PartitionLevel != 2 {
		t.Fatalf("partition level = %d, want 2", shards.Man.PartitionLevel)
	}
	const q = `/site/@lang`
	if d := analyzeQ(t, shards, q); d.Scatter || !strings.Contains(d.Reason, "attributes") {
		t.Errorf("shards: %q scatter=%v reason=%q, want an attribute rejection", q, d.Scatter, d.Reason)
	}
	segs := buildSegments(t, [][]byte{doc, []byte(`<site><a>5</a></site>`)}).View()
	if d := analyzeQ(t, segs, q); !d.Scatter {
		t.Errorf("segments: %q not scattered: %s", q, d.Reason)
	}
}
