package xquec_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xquec"
	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/segment"
	"xquec/internal/xmarkq"
)

// evalWith runs one query at the given parallelism and returns the
// serialized result, or the error that ended it.
func evalWith(db *xquec.Database, query string, par int) (string, error) {
	res, err := db.Execute(context.Background(), query, xquec.QueryOptions{Parallelism: par})
	if err != nil {
		return "", err
	}
	defer res.Close()
	var sb strings.Builder
	_, err = res.WriteXML(&sb)
	return sb.String(), err
}

// TestVMDifferentialMatrix is the top-level correctness gate for the
// query path: every benchmark query, over a single repository, shard
// sets of {2, 4, 8} shards and a three-segment set grown through the
// Writer, at intra-query parallelism {1, 4}, must produce output
// byte-identical to galaxlike — the DOM evaluator over the uncompressed
// corpus — and must fail with an ErrEval exactly when galaxlike fails.
// Partitioned databases exercise the worker-side per-member programs;
// the scatter/fused split is whatever the analyzer decides.
func TestVMDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow under -short")
	}
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	type topology struct {
		name string
		db   *xquec.Database
	}
	type corpus struct {
		doc   []byte // what galaxlike evaluates, uncompressed
		topos []topology
	}

	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.03, Seed: 91})
	var topos []topology
	for _, shards := range []int{1, 2, 4, 8} {
		db, err := xquec.Compress(doc, xquec.Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		topos = append(topos, topology{fmt.Sprintf("shards=%d", shards), db})
	}

	docs := segDocs(t, 3, 0.02)
	concat, err := segment.Concat(docs...)
	if err != nil {
		t.Fatal(err)
	}
	corpora := []corpus{
		{doc, topos},
		{concat, []topology{{"segments=3", segmentedDB(t, docs)}}},
	}
	for _, c := range corpora {
		ref := galaxlike.New(c.doc)
		ref.ParsePerQuery = false
		for _, q := range queries {
			want, wantErr := galaxlikeXML(ref, q.Text)
			for _, tp := range c.topos {
				for _, par := range []int{1, 4} {
					got, err := evalWith(tp.db, q.Text, par)
					if (wantErr == nil) != (err == nil) {
						t.Fatalf("%s par=%d %s: galaxlike err=%v, vm err=%v", tp.name, par, q.ID, wantErr, err)
					}
					if err != nil && !errors.Is(err, xquec.ErrEval) {
						t.Fatalf("%s par=%d %s: vm error not ErrEval: %v", tp.name, par, q.ID, err)
					}
					if got != want {
						t.Fatalf("%s par=%d %s: output mismatch\n--- vm ---\n%.400s\n--- galaxlike ---\n%.400s",
							tp.name, par, q.ID, got, want)
					}
				}
			}
		}
	}
}

// galaxlikeXML evaluates q on the reference evaluator and renders it
// the way Results.WriteXML does (one item per line).
func galaxlikeXML(ref *galaxlike.Engine, q string) (string, error) {
	res, err := ref.Query(q)
	if err != nil {
		return "", err
	}
	return res.SerializeXML()
}

// TestPreparedProgram pins the prepared-statement surface the plan
// cache reads: a prepared query carries its compiled program, sized and
// disassemblable, and executes to the right answer.
func TestPreparedProgram(t *testing.T) {
	db, err := xquec.Compress([]byte(`<doc><a>1</a><a>2</a></doc>`), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(`count(/doc/a)`)
	if err != nil {
		t.Fatal(err)
	}
	if prep.ProgramLen() == 0 || prep.CostBytes() <= 0 || prep.Disassemble() == "" {
		t.Fatalf("prepared: len=%d cost=%d disassembly=%q", prep.ProgramLen(), prep.CostBytes(), prep.Disassemble())
	}
	res, err := prep.Execute(context.Background(), xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := drainXML(res)
	res.Close()
	if err != nil || out != "2" {
		t.Fatalf("result = %q, %v", out, err)
	}
}
