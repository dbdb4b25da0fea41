package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"xquec"
	"xquec/internal/baselines/galaxlike"
	"xquec/internal/segment"
	"xquec/internal/xmarkq"
)

type digest = [sha256.Size]byte

// checker accounts every operation a run attempts and checks every
// query output against an oracle after the timed loop, so no check is
// timed. During the loop it only remembers, per key (a query text, or a
// repository state and query id), the digest of the first output seen
// and how many later outputs matched it. Any output differing from the
// first, and every output of a key whose first output the oracle
// rejects, counts as failed.
type checker struct {
	mu        sync.Mutex
	attempted int64
	errors    int64
	keys      map[string]*keyOutputs
}

type keyOutputs struct {
	first    digest
	matching int64 // outputs equal to first (first included)
	differ   int64
}

func newChecker() *checker { return &checker{keys: map[string]*keyOutputs{}} }

// fail records an operation that returned an error or a non-200 status.
func (c *checker) fail() {
	c.mu.Lock()
	c.attempted++
	c.errors++
	c.mu.Unlock()
}

// ok records an operation with no output to check (an append, a
// commit, a compaction) that succeeded.
func (c *checker) ok() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

// observe records one query output under key.
func (c *checker) observe(key string, d digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	k := c.keys[key]
	switch {
	case k == nil:
		c.keys[key] = &keyOutputs{first: d, matching: 1}
	case k.first == d:
		k.matching++
	default:
		k.differ++
	}
}

// verify compares each key's first output with oracle(key) and returns
// the number of failed operations. An oracle error fails the key.
func (c *checker) verify(oracle func(key string) (digest, error)) (failed int64, mismatched []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	failed = c.errors
	keys := make([]string, 0, len(c.keys))
	for key := range c.keys {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		k := c.keys[key]
		failed += k.differ
		want, err := oracle(key)
		if err != nil || want != k.first {
			failed += k.matching
			mismatched = append(mismatched, key)
		}
	}
	return failed, mismatched
}

// q9Oracle is XMark Q9 with its join predicates moved into path
// filters. It returns the same items in the same order: the FOR
// clause binds the same ($t, $t2) pairs in the same nesting order and
// keeps exactly those satisfying both equalities. The reference
// evaluator re-scans every binding, so the original text costs it
// O(persons × closed auctions × European items) — over a minute at
// scale 1 — while this form costs seconds. TestQ9OracleEquivalent
// checks the equivalence on the reference evaluator itself.
const q9Oracle = `FOR $p IN document("auction.xml")/site/people/person
LET $a := FOR $t IN document("auction.xml")/site/closed_auctions/closed_auction[buyer/@person = $p/@id],
              $t2 IN document("auction.xml")/site/regions/europe/item[@id = $t/itemref/@item]
          RETURN <item>{$t2/name/text()}</item>
RETURN <person name="{$p/name/text()}">{$a}</person>`

// referenceOracle evaluates query texts with the independent reference
// evaluator (galaxlike) over the uncompressed document.
type referenceOracle struct {
	eng *galaxlike.Engine
}

func newReferenceOracle(doc []byte) *referenceOracle {
	eng := galaxlike.New(doc)
	eng.ParsePerQuery = false // parse the document once per run, not once per query
	return &referenceOracle{eng: eng}
}

func (o *referenceOracle) digest(text string) (digest, error) {
	if text == xmarkq.Q9 {
		text = q9Oracle
	}
	res, err := o.eng.Query(text)
	if err != nil {
		return digest{}, err
	}
	s, err := res.SerializeXML()
	if err != nil {
		return digest{}, err
	}
	return sha256.Sum256([]byte(s)), nil
}

// reingestOracle answers for a segmented repository state by the
// segment layer's re-ingest identity: a fresh single-repository
// Compress of segment.Concat of the documents appended so far returns
// the same output for every query. It keeps the repository of the last
// state asked for.
type reingestOracle struct {
	base []byte
	docs [][]byte // appended documents, in order
	k    int
	db   *xquec.Database
}

// digest evaluates text over the state holding base plus the first k
// appended documents.
func (o *reingestOracle) digest(k int, text string) (digest, error) {
	if o.db == nil || o.k != k {
		corpus, err := segment.Concat(append([][]byte{o.base}, o.docs[:k]...)...)
		if err != nil {
			return digest{}, err
		}
		if o.db, err = xquec.Compress(corpus, xquec.Options{}); err != nil {
			return digest{}, err
		}
		o.k = k
	}
	var sb strings.Builder
	if err := runQuery(o.db, text, &sb); err != nil {
		return digest{}, err
	}
	return sha256.Sum256([]byte(sb.String())), nil
}

// runQuery is the benchmark's unit of query work: Execute with a zero
// QueryOptions, WriteXML and Close.
func runQuery(db *xquec.Database, text string, w io.Writer) error {
	res, err := db.Execute(context.Background(), text, xquec.QueryOptions{})
	if err != nil {
		return err
	}
	_, err = res.WriteXML(w)
	if cerr := res.Close(); err == nil {
		err = cerr
	}
	return err
}

// stateKey names the output of query id on the repository state holding
// k appended documents.
func stateKey(k int, id string) string { return fmt.Sprintf("%d|%s", k, id) }
