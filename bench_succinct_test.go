package xquec_test

import (
	"context"
	"fmt"
	"testing"

	"xquec"
	"xquec/internal/algebra"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

// The succinct-structure benchmarks compare the two structure backends
// head-to-head over the same XMark corpus: resident structure memory
// (bits per tree node) and the hot navigation operators the BP
// self-index replaces record-array lookups in.

const succinctBenchScale = 0.1

var structureBackends = []struct {
	name string
	kind storage.StructureKind
}{
	{"records", storage.StructRecords},
	{"succinct", storage.StructSuccinct},
}

func succinctBenchStore(b *testing.B, kind storage.StructureKind) *storage.Store {
	b.Helper()
	doc := datagen.XMark(datagen.XMarkConfig{Scale: succinctBenchScale, Seed: 17})
	s, err := storage.Load(doc, storage.LoadOptions{Structure: kind})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// tagExtent returns every element node with the given tag, in document
// order.
func tagExtent(s *storage.Store, tag string) algebra.NodeSet {
	code, ok := s.Code(tag)
	if !ok {
		return nil
	}
	var out algebra.NodeSet
	s.ScanNodes(func(id storage.NodeID, _ uint16) {
		if s.TagCodeOf(id) == code {
			out = append(out, id)
		}
	})
	return out
}

// BenchmarkSuccinctMemory reports the resident structure encoding of
// each backend: total repository bytes, the shape-encoding share, and
// its density in bits per tree node (elements + attributes + text
// values). The op under timing is a full ingest, so ns/op also tracks
// the succinct construction cost.
func BenchmarkSuccinctMemory(b *testing.B) {
	for _, bk := range structureBackends {
		b.Run(bk.name, func(b *testing.B) {
			var s *storage.Store
			for i := 0; i < b.N; i++ {
				s = succinctBenchStore(b, bk.kind)
			}
			f := s.Footprint()
			bpBits, markBits, treeNodes := s.StructureStats()
			if bk.kind == storage.StructRecords {
				// Count text values the same way the succinct side does.
				nLeaves := 0
				s.ScanNodes(func(id storage.NodeID, _ uint16) {
					for k := range s.Kids(id) {
						if k.ID == 0 {
							nLeaves++
						}
					}
				})
				treeNodes = s.NumNodes() + nLeaves
				shape := f.StructureTree + f.ParentPointers + f.BPlusIndex -
					2*s.NumNodes() - 8*nLeaves // minus tags and value refs
				b.ReportMetric(float64(8*shape)/float64(treeNodes), "bits/node")
				b.ReportMetric(float64(shape), "shapeB")
			} else {
				b.ReportMetric(float64(bpBits)/float64(treeNodes), "bits/node")
				b.ReportMetric(float64((bpBits+markBits)/8), "shapeB")
			}
			b.ReportMetric(float64(f.Total()), "residentB")
		})
	}
}

// BenchmarkSuccinctDescendants measures the descendant interval merge
// — subtree-boundary (FindClose) lookups on the succinct backend —
// restricting the full item extent to the subtrees of every region.
func BenchmarkSuccinctDescendants(b *testing.B) {
	for _, bk := range structureBackends {
		b.Run(bk.name, func(b *testing.B) {
			s := succinctBenchStore(b, bk.kind)
			regions := tagExtent(s, "regions")
			items := tagExtent(s, "item")
			if len(regions) == 0 || len(items) == 0 {
				b.Fatal("empty inputs")
			}
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(algebra.Descendants(s, regions, items))
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
		})
	}
}

// BenchmarkSuccinctParent measures the parent step — Enclose on the
// succinct backend — over the full item extent.
func BenchmarkSuccinctParent(b *testing.B) {
	for _, bk := range structureBackends {
		b.Run(bk.name, func(b *testing.B) {
			s := succinctBenchStore(b, bk.kind)
			items := tagExtent(s, "item")
			if len(items) == 0 {
				b.Fatal("no items")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algebra.Parent(s, items)
			}
			b.ReportMetric(float64(len(items))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
		})
	}
}

// BenchmarkSuccinctQuery measures end-to-end query latency per backend
// — the throughput gate that matters operationally, since structural
// navigation is one stage among scan, decompression and serialization.
func BenchmarkSuccinctQuery(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: succinctBenchScale, Seed: 17})
	for _, bk := range structureBackends {
		// Both values explicit: a map with a missing key would silently
		// fall back to "" (the default backend) and benchmark the same
		// backend twice.
		b.Setenv("XQUEC_STRUCT", map[string]string{
			"records":  "records",
			"succinct": "succinct",
		}[bk.name])
		db, err := xquec.Compress(doc, xquec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range xmarkq.Queries()[:4] {
			b.Run(bk.name+"/"+q.ID, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := db.Execute(context.Background(), q.Text, xquec.QueryOptions{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := drainXML(res); err != nil {
						b.Fatal(err)
					}
					res.Close()
				}
			})
		}
	}
}

// TestSuccinctBenchSanity keeps the benchmark inputs honest under plain
// `go test`: both backends must agree on the operator outputs used
// above.
func TestSuccinctBenchSanity(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 17})
	stores := map[string]*storage.Store{}
	for _, bk := range structureBackends {
		s, err := storage.Load(doc, storage.LoadOptions{Structure: bk.kind})
		if err != nil {
			t.Fatal(err)
		}
		stores[bk.name] = s
	}
	rec, suc := stores["records"], stores["succinct"]
	regions, items := tagExtent(rec, "regions"), tagExtent(rec, "item")
	if fmt.Sprint(tagExtent(suc, "item")) != fmt.Sprint(items) {
		t.Fatal("item extents differ between backends")
	}
	if fmt.Sprint(algebra.Descendants(rec, regions, items)) != fmt.Sprint(algebra.Descendants(suc, regions, items)) {
		t.Fatal("Descendants differs between backends")
	}
	if fmt.Sprint(algebra.Parent(rec, items)) != fmt.Sprint(algebra.Parent(suc, items)) {
		t.Fatal("Parent differs between backends")
	}
}
