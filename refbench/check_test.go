package main

import (
	"crypto/sha256"
	"errors"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

func TestCheckerFailedAccounting(t *testing.T) {
	good, bad, other := sha256.Sum256([]byte("a")), sha256.Sum256([]byte("b")), sha256.Sum256([]byte("c"))
	c := newChecker()
	c.observe("q1", good)
	c.observe("q1", good)
	c.observe("q1", other) // differs from the first q1 output
	c.observe("q2", bad)   // the oracle disagrees: every q2 output fails
	c.observe("q2", bad)
	c.observe("q3", good) // the oracle errors: q3 fails
	c.fail()              // an error or a non-200 status
	c.ok()                // a successful commit
	want := map[string]digest{"q1": good, "q2": good}
	failed, mismatched := c.verify(func(key string) (digest, error) {
		d, ok := want[key]
		if !ok {
			return digest{}, errors.New("no oracle")
		}
		return d, nil
	})
	if c.attempted != 8 {
		t.Errorf("attempted = %d, want 8", c.attempted)
	}
	if failed != 1+2+1+1 {
		t.Errorf("failed = %d, want 5", failed)
	}
	if len(mismatched) != 2 || mismatched[0] != "q2" || mismatched[1] != "q3" {
		t.Errorf("mismatched = %v, want [q2 q3]", mismatched)
	}
}

func TestCheckerAllCorrect(t *testing.T) {
	c := newChecker()
	d := sha256.Sum256([]byte("x"))
	for i := 0; i < 3; i++ {
		c.observe("k", d)
	}
	failed, mismatched := c.verify(func(string) (digest, error) { return d, nil })
	if failed != 0 || mismatched != nil || c.attempted != 3 {
		t.Errorf("failed=%d mismatched=%v attempted=%d", failed, mismatched, c.attempted)
	}
}

// TestQ9OracleEquivalent checks, on the reference evaluator, that the
// rewritten Q9 the oracle evaluates returns Q9's output byte for byte.
func TestQ9OracleEquivalent(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.1, Seed: seed})
		o := newReferenceOracle(doc)
		want, err := o.eng.Query(xmarkq.Q9)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := want.SerializeXML()
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.eng.Query(q9Oracle)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := got.SerializeXML()
		if err != nil {
			t.Fatal(err)
		}
		if gs != ws {
			t.Fatalf("seed %d: rewritten Q9 differs from Q9\n got: %.300s\nwant: %.300s", seed, gs, ws)
		}
		d, err := o.digest(xmarkq.Q9)
		if err != nil || d != sha256.Sum256([]byte(ws)) {
			t.Fatalf("seed %d: oracle digest for Q9 does not match Q9's output (%v)", seed, err)
		}
	}
}
