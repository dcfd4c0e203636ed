package extract

// TemplateHits returns how many ScanBytesInto calls on r were filled from
// a stored template instead of a full scan. Test-only: the extract_test
// package checks hit rates through it.
func TemplateHits(r *ScanResult) int { return r.templates.hits }
