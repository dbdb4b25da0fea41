package xquec

import (
	"context"
	"errors"
	"io/fs"
)

// Typed error sentinels. Every error returned by Execute, Prepare,
// Prepared.Execute, Open, OpenBytes and the Results cursor wraps one
// of these (plus the underlying cause) via multiple %w-style
// unwrapping, so callers classify failures with errors.Is instead of
// matching message strings:
//
//	if errors.Is(err, xquec.ErrParse) { ... }        // bad query text
//	if errors.Is(err, xquec.ErrEval) { ... }         // query ran and failed
//	if errors.Is(err, xquec.ErrCorruptRepository) { ... }
//
// Context cancellation is deliberately not tagged: a deadline expiry
// surfaces as context.DeadlineExceeded / context.Canceled only, so the
// one timeout test callers already write keeps working.
var (
	// ErrParse tags query syntax errors.
	ErrParse = errors.New("xquec: query parse error")
	// ErrEval tags evaluation (runtime) errors: unbound variables,
	// unsupported expressions, serialization failures.
	ErrEval = errors.New("xquec: query evaluation error")
	// ErrCorruptRepository tags Open/OpenBytes failures caused by the
	// repository bytes themselves (bad magic, checksum mismatch,
	// truncation). Filesystem errors (missing file, permissions) are
	// not tagged; test those with errors.Is(err, os.ErrNotExist) etc.
	ErrCorruptRepository = errors.New("xquec: corrupt repository")
)

// taggedError couples a sentinel with the underlying cause without
// disturbing the message: the cause's text already carries the
// context, the tag exists for errors.Is.
type taggedError struct {
	tag   error
	cause error
}

func (t *taggedError) Error() string   { return t.cause.Error() }
func (t *taggedError) Unwrap() []error { return []error{t.tag, t.cause} }

// tagErr wraps err with the sentinel. Context cancellation passes
// through untouched (see the package sentinel doc).
func tagErr(tag, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &taggedError{tag: tag, cause: err}
}

// openErr classifies an Open/OpenBytes failure: content decoding
// failures become ErrCorruptRepository, filesystem errors keep their
// native chain untagged.
func openErr(err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return err
	}
	return tagErr(ErrCorruptRepository, err)
}
