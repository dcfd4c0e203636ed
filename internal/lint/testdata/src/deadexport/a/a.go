// Package a is the deadexport fixture's library: each exported name is
// used by another package, only by a test, by a nested module, or by
// nothing at all.
package a

import (
	"fmt"
	"net/http"
)

func Unused() {} // want "exported Unused is used by no non-test file"

func TestOnly() {} // want "exported TestOnly is used by no non-test file"

func UsedByTool() {}

func UsedByNested() {}

//lint:ignore wmlint/deadexport an ablation entry point kept for benchmarks
func Kept() {}

//lint:ignore wmlint/deadexport
func NoReason() {} // want "exported NoReason is used by no non-test file"

func helper() {} // unexported names are out of scope

// T's String, Error, ServeHTTP and Unwrap satisfy fmt.Stringer, error,
// http.Handler and the errors package's Unwrap protocol, so callers
// reach them through those interfaces.
type T struct{}

func (T) String() string { return fmt.Sprint("t") }

func (*T) Error() string { return "t" }

func (T) ServeHTTP(http.ResponseWriter, *http.Request) {}

func (T) Unwrap() error { return nil }

func (T) Method() {} // want "exported T.Method is used by no non-test file"

func (T) Used() {}
