package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xquec"
)

// writeRepo compresses a tiny document into dir/name.xqc.
func writeRepo(t testing.TB, dir, name, doc string) {
	t.Helper()
	db, err := xquec.Compress([]byte(doc), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFile(filepath.Join(dir, name+".xqc")); err != nil {
		t.Fatal(err)
	}
}

func TestPoolLoadHitEvict(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		writeRepo(t, dir, fmt.Sprintf("r%d", i), fmt.Sprintf("<doc><n>%d</n></doc>", i))
	}
	p := NewPool(dir, 2)

	db0, cached, err := p.Get("r0")
	if err != nil || cached {
		t.Fatalf("first get: cached=%v err=%v", cached, err)
	}
	if _, cached, _ = p.Get("r0"); !cached {
		t.Fatal("second get should hit")
	}
	again, _, _ := p.Get("r0")
	if again != db0 {
		t.Fatal("hit returned a different handle")
	}
	p.Get("r1")
	p.Get("r2") // capacity 2: evicts r0 (LRU)
	if _, cached, _ := p.Get("r0"); cached {
		t.Fatal("r0 should have been evicted")
	}
	st := p.Stats()
	if st.Evictions < 1 || st.Hits < 2 || st.Misses < 3 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Resident) != 2 {
		t.Fatalf("resident = %v", st.Resident)
	}
}

func TestPoolRejectsBadNames(t *testing.T) {
	p := NewPool(t.TempDir(), 2)
	for _, name := range []string{"", "../etc/passwd", "a/b", `a\b`, ".."} {
		if _, _, err := p.Get(name); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
}

func TestPoolMissingRepo(t *testing.T) {
	p := NewPool(t.TempDir(), 2)
	if _, _, err := p.Get("nope"); err == nil {
		t.Fatal("missing repository loaded")
	}
	// Failed loads are not cached: create the file and retry.
	writeRepo(t, p.dir, "nope", "<doc><a>1</a></doc>")
	if _, _, err := p.Get("nope"); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
}

func TestPoolConcurrentGetSharesOneLoad(t *testing.T) {
	dir := t.TempDir()
	writeRepo(t, dir, "shared", "<doc><a>1</a></doc>")
	p := NewPool(dir, 2)
	loads := 0
	var loadMu sync.Mutex
	inner := p.open
	p.open = func(path string) (*xquec.Database, error) {
		loadMu.Lock()
		loads++
		loadMu.Unlock()
		return inner(path)
	}
	var wg sync.WaitGroup
	dbs := make([]*xquec.Database, 16)
	for i := range dbs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db, _, err := p.Get("shared")
			if err != nil {
				t.Error(err)
			}
			dbs[i] = db
		}(i)
	}
	wg.Wait()
	if loads != 1 {
		t.Fatalf("loads = %d, want 1", loads)
	}
	for _, db := range dbs[1:] {
		if db != dbs[0] {
			t.Fatal("goroutines got different handles")
		}
	}
}

func TestPoolAvailable(t *testing.T) {
	dir := t.TempDir()
	writeRepo(t, dir, "b", "<doc><a>1</a></doc>")
	writeRepo(t, dir, "a", "<doc><a>1</a></doc>")
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644)
	p := NewPool(dir, 2)
	names, err := p.Available()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

// TestPoolEvictionDuringStream proves the eviction contract the pool's
// doc-comment promises: evicting (and even swapping on disk) a
// repository while a streaming query holds its cursor must not corrupt
// the stream — the cursor pins the old immutable handle; only new Gets
// see the replacement.
func TestPoolEvictionDuringStream(t *testing.T) {
	dir := t.TempDir()
	var doc strings.Builder
	doc.WriteString("<doc>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&doc, "<a>v%d</a>", i)
	}
	doc.WriteString("</doc>")
	writeRepo(t, dir, "victim", doc.String())
	writeRepo(t, dir, "other0", "<doc><a>x</a></doc>")
	writeRepo(t, dir, "other1", "<doc><a>y</a></doc>")
	p := NewPool(dir, 1) // capacity 1: any other Get evicts the victim

	db, _, err := p.Get("victim")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(context.Background(), `/doc/a/text()`, xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	// Read a few items, then evict the handle and swap the on-disk file
	// for a different corpus mid-stream.
	for i := 0; i < 10; i++ {
		item, ok, err := res.Next()
		if err != nil || !ok {
			t.Fatalf("item %d: ok=%v err=%v", i, ok, err)
		}
		if xml, _ := item.XML(); xml != fmt.Sprintf("v%d", i) {
			t.Fatalf("item %d = %q", i, xml)
		}
	}
	p.Get("other0")
	p.Get("other1")
	if len(p.Resident()) != 1 || p.Resident()[0] == "victim" {
		t.Fatalf("victim still resident: %v", p.Resident())
	}
	writeRepo(t, dir, "victim", "<doc><a>SWAPPED</a></doc>")
	swapped, cached, err := p.Get("victim")
	if err != nil || cached {
		t.Fatalf("reload: cached=%v err=%v", cached, err)
	}
	if swapped == db {
		t.Fatal("reload returned the evicted handle")
	}
	out := swapped.MustQuery(`/doc/a/text()`)
	defer out.Close()
	if item, ok, err := out.Next(); err != nil || !ok {
		t.Fatalf("swapped repo: ok=%v err=%v", ok, err)
	} else if xml, _ := item.XML(); xml != "SWAPPED" {
		t.Fatalf("swapped repo = %q", xml)
	}

	// The original cursor keeps streaming the original corpus.
	for i := 10; i < 200; i++ {
		item, ok, err := res.Next()
		if err != nil || !ok {
			t.Fatalf("post-evict item %d: ok=%v err=%v", i, ok, err)
		}
		if xml, _ := item.XML(); xml != fmt.Sprintf("v%d", i) {
			t.Fatalf("post-evict item %d = %q", i, xml)
		}
	}
	if _, ok, err := res.Next(); ok || err != nil {
		t.Fatalf("stream should end cleanly: ok=%v err=%v", ok, err)
	}
}

// TestPlanCacheTopologyKeyPreventsStalePlans drives the full
// pool + plan-cache swap sequence through Server.resolve's keying
// discipline: a plan prepared against the first handle must not be
// served for the reloaded one, because TopologyKey changes with the
// instance.
func TestPlanCacheTopologyKeyPreventsStalePlans(t *testing.T) {
	dir := t.TempDir()
	writeRepo(t, dir, "r", "<doc><a>old</a></doc>")
	p := NewPool(dir, 1)
	plans := NewPlanCache(8)
	const q = `/doc/a/text()`

	db1, _, err := p.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	prep1, err := db1.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	plans.Put("r", db1.TopologyKey(), q, prep1)

	// Evict, swap on disk, reload.
	writeRepo(t, dir, "evictor", "<doc><a>z</a></doc>")
	p.Get("evictor")
	writeRepo(t, dir, "r", "<doc><a>new</a></doc>")
	db2, _, err := p.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	if db2.TopologyKey() == db1.TopologyKey() {
		t.Fatal("reloaded handle has the same topology key")
	}
	if got := plans.Get("r", db2.TopologyKey(), q); got != nil {
		t.Fatal("stale plan served for the reloaded repository")
	}
	// The old key still resolves (for in-flight uses of the old handle).
	if got := plans.Get("r", db1.TopologyKey(), q); got != prep1 {
		t.Fatal("original plan lost")
	}
}
