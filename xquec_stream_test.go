package xquec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"xquec/internal/storage"
)

// streamDB builds a repository whose canonical streaming query
// (`FOR $i IN /d/i RETURN $i/v/text()`) yields n items, each requiring
// exactly one value decompression.
func streamDB(t testing.TB, n int) *Database {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<d>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<i><v>val%04d</v></i>", i)
	}
	sb.WriteString("</d>")
	db, err := Compress([]byte(sb.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const streamQuery = `FOR $i IN /d/i RETURN $i/v/text()`

func TestResultsNextIteration(t *testing.T) {
	db := streamDB(t, 5)
	res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var got []string
	for {
		item, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		xml, err := item.XML()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, xml)
	}
	if len(got) != 5 || got[0] != "val0000" || got[4] != "val0004" {
		t.Fatalf("items = %q", got)
	}
	// Exhausted cursor: more Nexts are a clean no-op, Len is the total.
	if _, ok, err := res.Next(); ok || err != nil {
		t.Fatalf("Next after exhaustion = %v, %v", ok, err)
	}
	if res.Len() != 5 {
		t.Fatalf("Len = %d", res.Len())
	}
}

// TestWriteXMLMatchesSerializeXML: WriteXML renders the one-item-per-
// line form the removed Results.SerializeXML returned — exactly the
// items Next hands out, joined by newlines — reports the bytes it
// wrote, and drains the cursor (a second WriteXML writes nothing).
func TestWriteXMLMatchesSerializeXML(t *testing.T) {
	db := streamDB(t, 7)
	items := db.MustQuery(streamQuery)
	var lines []string
	for {
		item, ok, err := items.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		xml, err := item.XML()
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, xml)
	}
	want := strings.Join(lines, "\n")
	res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var sb strings.Builder
	n, err := res.WriteXML(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("WriteXML = %q, want %q", sb.String(), want)
	}
	if n != len(want) {
		t.Fatalf("n = %d, want %d", n, len(want))
	}
	// WriteXML drained the cursor; Len still reports the full total.
	if res.Len() != 7 {
		t.Fatalf("Len after drain = %d", res.Len())
	}
	if n, err := res.WriteXML(io.Discard); n != 0 || err != nil {
		t.Fatalf("second WriteXML = %d, %v", n, err)
	}
}

// TestStreamCancellationMidIteration cancels the context between two
// Next calls: the next call must return ctx.Err(), and the error must
// be sticky across further calls. Close stays clean afterwards.
func TestStreamCancellationMidIteration(t *testing.T) {
	db := streamDB(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := db.Execute(ctx, streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	for i := 0; i < 3; i++ {
		if _, ok, err := res.Next(); !ok || err != nil {
			t.Fatalf("item %d: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	if _, ok, err := res.Next(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = ok=%v err=%v, want Canceled", ok, err)
	}
	// Sticky: the same error again, and WriteXML reports it too.
	if _, _, err := res.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Next after cancel: %v", err)
	}
	if _, err := res.WriteXML(io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteXML after cancel: %v", err)
	}
	if err := res.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}
	if err := res.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestEarlyStopSkipsDecoding is the observable half of the pull-based
// contract: consuming k of n result items must decompress ~k values,
// not all n. The process-wide decode counter provides the observation.
func TestEarlyStopSkipsDecoding(t *testing.T) {
	const n = 400
	db := streamDB(t, n)

	base := storage.DecodeOps()
	res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := res.Next(); !ok || err != nil {
			t.Fatalf("item %d: ok=%v err=%v", i, ok, err)
		}
	}
	afterThree := storage.DecodeOps() - base
	// 3 consumed items -> 3 value decodes (plus a little slack for the
	// primed first item); decisively below the full extent.
	if afterThree > 8 {
		t.Fatalf("consuming 3 items cost %d decodes; early stop is not skipping work", afterThree)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	afterClose := storage.DecodeOps() - base
	if afterClose >= n {
		t.Fatalf("Close still decoded the full extent (%d decodes)", afterClose)
	}

	// Control: a full drain does pay for every item.
	base = storage.DecodeOps()
	res2, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res2.WriteXML(io.Discard); err != nil {
		t.Fatal(err)
	}
	if drained := storage.DecodeOps() - base; drained < n {
		t.Fatalf("full drain decoded only %d of %d values", drained, n)
	}
	res2.Close()
}

// TestConcurrentStreamIterators runs many independent cursors over one
// Database at once (meaningful under -race): per-query state must be
// fully private to each cursor.
func TestConcurrentStreamIterators(t *testing.T) {
	db := streamDB(t, 40)
	want, err := drainXML(db.MustQuery(streamQuery))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
				if err != nil {
					errs <- err
					return
				}
				var sb strings.Builder
				for {
					item, ok, err := res.Next()
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						break
					}
					if sb.Len() > 0 {
						sb.WriteByte('\n')
					}
					xml, err := item.XML()
					if err != nil {
						errs <- err
						return
					}
					sb.WriteString(xml)
				}
				res.Close()
				if sb.String() != want {
					errs <- fmt.Errorf("worker %d: output diverged", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestErrorSentinels(t *testing.T) {
	db := streamDB(t, 3)

	t.Run("parse", func(t *testing.T) {
		if _, err := db.Execute(context.Background(), `FOR $x IN`, QueryOptions{}); !errors.Is(err, ErrParse) {
			t.Fatalf("Query parse err = %v", err)
		}
		if _, err := db.Prepare(`((`); !errors.Is(err, ErrParse) {
			t.Fatalf("Prepare parse err = %v", err)
		}
		if err := ParseQuery(`FOR`); !errors.Is(err, ErrParse) {
			t.Fatalf("ParseQuery err = %v", err)
		}
		if err := ParseQuery(streamQuery); err != nil {
			t.Fatalf("valid query rejected: %v", err)
		}
	})

	t.Run("eval", func(t *testing.T) {
		for _, q := range []string{`$undefined`, `unknownfn(1)`} {
			_, err := db.Execute(context.Background(), q, QueryOptions{})
			if !errors.Is(err, ErrEval) {
				t.Fatalf("Query(%s) err = %v, want ErrEval", q, err)
			}
			if errors.Is(err, ErrParse) {
				t.Fatalf("Query(%s) tagged as parse error", q)
			}
		}
	})

	t.Run("corrupt repository", func(t *testing.T) {
		data := db.Bytes()
		bad := append([]byte("NOTAREPO"), data[8:]...)
		_, err := OpenBytes(bad)
		if !errors.Is(err, ErrCorruptRepository) {
			t.Fatalf("OpenBytes err = %v, want ErrCorruptRepository", err)
		}
		// The underlying message survives the tag.
		if !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("cause lost: %v", err)
		}
		if _, err := OpenBytes(data[:len(data)-50]); !errors.Is(err, ErrCorruptRepository) {
			t.Fatalf("truncated err = %v", err)
		}
	})

	t.Run("missing file is not corrupt", func(t *testing.T) {
		_, err := Open("/nonexistent/path/repo.xqc")
		if err == nil {
			t.Fatal("missing file opened")
		}
		if errors.Is(err, ErrCorruptRepository) {
			t.Fatalf("filesystem error tagged as corruption: %v", err)
		}
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("os.ErrNotExist lost: %v", err)
		}
	})

	t.Run("cancellation is untagged", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := db.Execute(ctx, streamQuery, QueryOptions{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
		if errors.Is(err, ErrEval) {
			t.Fatalf("cancellation tagged ErrEval: %v", err)
		}
	})
}

// TestItemAppendXML exercises the allocation-free per-item form.
func TestItemAppendXML(t *testing.T) {
	db := streamDB(t, 3)
	res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	buf := make([]byte, 0, 64)
	var got []string
	for {
		item, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		buf, err = item.AppendXML(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(buf))
	}
	if len(got) != 3 || got[2] != "val0002" {
		t.Fatalf("items = %q", got)
	}
}
