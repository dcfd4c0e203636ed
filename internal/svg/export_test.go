package svg

// Test-only exports: the differential fuzz test lives in package svg_test
// (it renders corpus documents with internal/render, which imports svg) and
// needs to drive the fast lexer and its eligibility pre-scan directly.

// FastEligible exposes the fast-path pre-scan.
func FastEligible(data []byte) bool { return fastEligible(data) }

// LexBytes runs the hand-rolled lexer unconditionally, bypassing the
// eligibility routing of StreamBytes. Callers must only pass eligible
// documents; the differential tests guard that with FastEligible.
func LexBytes(data []byte, fn func(Element) error) error {
	return lex(data, fn, nil)
}

// ParseFloatFast exposes the no-allocation float parser for differential
// unit tests against strconv.
func ParseFloatFast(b []byte) (float64, bool) { return parseFloatFast(b) }
