package extract

// TemplateHits returns how many ScanBytesInto calls on r were filled from
// a stored template instead of a full scan. Test-only: the extract_test
// package checks hit rates through it.
func TemplateHits(r *ScanResult) int { return r.templates.hits }

// CacheTemplateKnown reports whether c knows the scan template its cached
// geometry equals, so that results filled from it hit without a compare.
func CacheTemplateKnown(c *AttributionCache) bool { return c.tmpl != nil }

// AttributeExhaustive is the paper's literal exhaustive Algorithm 2 that
// Attribute is held to; CountDuplicateAssignments is the
// label-consumption ablation.
var (
	AttributeExhaustive       = referenceAttribute
	CountDuplicateAssignments = countDuplicateAssignments
)
