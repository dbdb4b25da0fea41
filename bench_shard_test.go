package xquec

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/experiments"
)

// shardBenchDBs lazily builds one repository per shard count over the
// same corpus (shards=0 is the unsharded baseline), shared by all the
// scatter-gather benchmarks.
var shardBenchDBs = struct {
	once sync.Once
	dbs  map[int]*Database
	err  error
}{}

func shardBenchRepo(b *testing.B, shards int) *Database {
	b.Helper()
	shardBenchDBs.once.Do(func() {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: 4 * benchScale, Seed: experiments.Seed})
		shardBenchDBs.dbs = map[int]*Database{}
		for _, n := range []int{0, 1, 2, 4, 8} {
			var db *Database
			var err error
			if n == 0 {
				db, err = Compress(doc, Options{})
			} else {
				db, err = buildShardSet(doc, n, Options{})
			}
			if err != nil {
				shardBenchDBs.err = err
				return
			}
			shardBenchDBs.dbs[n] = db
		}
	})
	if shardBenchDBs.err != nil {
		b.Fatal(shardBenchDBs.err)
	}
	return shardBenchDBs.dbs[shards]
}

func runShardQuery(b *testing.B, q string) {
	for _, shards := range []int{0, 1, 2, 4, 8} {
		name := fmt.Sprintf("shards=%d", shards)
		if shards == 0 {
			name = "unsharded"
		}
		db := shardBenchRepo(b, shards)
		b.Run(name, func(b *testing.B) {
			// Warm up once untimed: the fallback path fuses the corpus
			// lazily (sync.Once) on its first query, a one-time cost that
			// would otherwise be billed to iteration 0.
			if res, err := db.Execute(context.Background(), q, QueryOptions{}); err == nil {
				res.Len()
				res.Close()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Execute(context.Background(), q, QueryOptions{})
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
}

// BenchmarkShardScatter drives the full scatter-gather path on a
// scatterable query: per-shard evaluation through the worker boundary,
// rank stamping, and the k-way ordered merge. The unsharded row is the
// single-store baseline; on a single-core host the sharded rows
// measure coordination + merge overhead (speedups need real cores, as
// with bench-par).
func BenchmarkShardScatter(b *testing.B) {
	runShardQuery(b,
		`FOR $p IN document("auction.xml")/site/people/person RETURN $p/name/text()`)
}

// BenchmarkShardFallback drives the fused-fallback path: a whole-corpus
// aggregate the analyzer declines to scatter, answered on the lazily
// fused store. The one-time fuse happens in the untimed warm-up, so
// the steady-state cost must track the unsharded baseline.
func BenchmarkShardFallback(b *testing.B) {
	runShardQuery(b, `count(/site//item)`)
}
