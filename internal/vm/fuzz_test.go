package vm

import (
	"testing"

	"xquec/internal/xquery"
)

// FuzzCompile feeds arbitrary query text through the full
// parse→compile→run pipeline and cross-checks the compiled program
// against galaxlike over the uncompressed document: any input that
// parses must produce byte-identical output, or fail exactly when
// galaxlike fails. Compile never declines parseable input (shapes it
// does not specialize lower to OpEvalPush), so a compile error counts
// as a failure. The seed corpus is the unit battery, so `go test`
// alone replays every compiled construct through the differential
// check.
func FuzzCompile(f *testing.F) {
	for _, q := range queryBattery() {
		f.Add(q.Text)
	}
	f.Add(`FOR $x IN /site/a LET $y := $x/b WHERE $y > 1 + 2 RETURN <r>{$y}</r>`)
	f.Add(`(1 + 2 * 3, "lit", /site/people)`)
	f.Add(`FOR $x IN /a FOR $y IN /b WHERE $x/@id = $y/@ref RETURN $x`)
	s := store(f)
	f.Fuzz(func(t *testing.T, query string) {
		if len(query) > 1024 {
			return // keep eval cost bounded; long inputs add no coverage
		}
		if _, err := xquery.Parse(query); err != nil {
			return
		}
		want, wantErr := evalRef(t, query)
		got, gotErr := evalVM(t, s, query, 1)
		checkOracle(t, query, want, wantErr, got, gotErr)
	})
}
