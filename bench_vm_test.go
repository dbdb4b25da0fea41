// Benchmarks for the compiled-plan engine: per-item dispatch cost,
// first-item latency and a predicate workload on the stack VM. The
// sub-benchmarks keep their historical "engine=vm" names so records in
// BENCH_vm.json stay comparable across commits. `make bench-vm` appends
// them to BENCH_vm.json via cmd/benchjson.
package xquec

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkVMStream drains a fixed-cardinality streaming query and
// reports the per-item cost (ns/item) of the pull cursor: this is the
// dispatch path — domain scan, predicate, bind, path, emit — with
// setup amortized over 5000 items per evaluation.
func BenchmarkVMStream(b *testing.B) {
	const items = 5000
	db := benchStreamDB(b, items)
	prep, err := db.Prepare(streamQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("engine=vm", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := prep.Execute(context.Background(), QueryOptions{})
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				_, ok, err := res.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			res.Close()
			if n != items {
				b.Fatalf("drained %d items, want %d", n, items)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/items, "ns/item")
	})
}

// BenchmarkVMFirstResult is BenchmarkFirstResult over a prepared
// statement: query-to-first-item latency at 10×-apart cardinalities
// (must stay flat in n).
func BenchmarkVMFirstResult(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		db := benchStreamDB(b, n)
		prep, err := db.Prepare(streamQuery)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("engine=vm/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := prep.Execute(context.Background(), QueryOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok, err := res.Next(); !ok || err != nil {
					b.Fatalf("first item: ok=%v err=%v", ok, err)
				}
				res.Close()
			}
		})
	}
}

// BenchmarkVMPredicate runs a compressed-domain predicate query —
// restrict + deferred filter + join-free FLWOR — end to end, covering
// the opcode fast paths rather than raw emission.
func BenchmarkVMPredicate(b *testing.B) {
	db := benchVMPredDB(b)
	const q = `FOR $i IN /d/i WHERE $i/n >= 500 RETURN $i/v/text()`
	prep, err := db.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("engine=vm", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := prep.Execute(context.Background(), QueryOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for {
				_, ok, err := res.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
			}
			res.Close()
		}
	})
}

// benchVMPredDB builds a repository with an integer container for the
// predicate benchmark.
func benchVMPredDB(b *testing.B) *Database {
	b.Helper()
	var sb []byte
	sb = append(sb, "<d>"...)
	for i := 0; i < 2000; i++ {
		sb = fmt.Appendf(sb, "<i><n>%d</n><v>value-%06d</v></i>", i, i)
	}
	sb = append(sb, "</d>"...)
	db, err := Compress(sb, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return db
}
