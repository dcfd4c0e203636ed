package dataset

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/svg"
	"ovhweather/internal/wmap"
)

// ProcessReport accounts for a batch-processing run the way the paper's
// Table 2 text does: how many SVGs became YAMLs and why the rest failed.
type ProcessReport struct {
	Map       wmap.MapID
	Processed int // SVGs successfully converted
	ScanFail  int // malformed attributes / structural violations (Algorithm 1 failures)
	AttrFail  int // missing elements / no intersections (Algorithm 2 failures)
	XMLFail   int // XML-reader failures: truncated or non-XML documents
	WriteFail int
	OtherFail int

	// CacheHits and CacheMisses account for the attribution cache: hits are
	// snapshots whose topology matched the worker's previous snapshot, so
	// Algorithm 2 was skipped and only the loads were spliced in. They
	// partition the snapshots that reached attribution, not Total().
	CacheHits   int
	CacheMisses int
}

// Total returns the number of input files considered.
func (r ProcessReport) Total() int {
	return r.Processed + r.ScanFail + r.AttrFail + r.XMLFail + r.WriteFail + r.OtherFail
}

// Failed returns the number of unprocessable files.
func (r ProcessReport) Failed() int { return r.Total() - r.Processed }

// String summarizes the report on one line.
func (r ProcessReport) String() string {
	return fmt.Sprintf("%s: %d/%d processed (%d scan, %d attribution, %d xml, %d write, %d other failures; attribution cache %d hits / %d misses)",
		r.Map, r.Processed, r.Total(), r.ScanFail, r.AttrFail, r.XMLFail, r.WriteFail, r.OtherFail,
		r.CacheHits, r.CacheMisses)
}

// add accumulates another report's counters into r.
func (r *ProcessReport) add(o ProcessReport) {
	r.Processed += o.Processed
	r.ScanFail += o.ScanFail
	r.AttrFail += o.AttrFail
	r.XMLFail += o.XMLFail
	r.WriteFail += o.WriteFail
	r.OtherFail += o.OtherFail
	r.CacheHits += o.CacheHits
	r.CacheMisses += o.CacheMisses
}

// outcome is the failure class of one processed snapshot, mapping onto the
// ProcessReport counters.
type outcome int

const (
	outProcessed outcome = iota
	outScanFail
	outAttrFail
	outXMLFail
	outWriteFail
	outOtherFail
)

// count increments the report counter the outcome belongs to.
func (o outcome) count(rep *ProcessReport) {
	switch o {
	case outProcessed:
		rep.Processed++
	case outScanFail:
		rep.ScanFail++
	case outAttrFail:
		rep.AttrFail++
	case outXMLFail:
		rep.XMLFail++
	case outWriteFail:
		rep.WriteFail++
	default:
		rep.OtherFail++
	}
}

// classify maps an extraction error onto its failure class. The paper's
// taxonomy: structural violations and malformed attribute values are
// Algorithm 1 (scan) failures, failed geometric attributions are Algorithm 2
// failures, and documents the XML reader itself rejects — truncated
// downloads, non-XML payloads — are counted separately as XML failures.
func classify(err error) outcome {
	var scanErr *extract.ScanError
	var attrErr *extract.AttributeError
	var readErr *svg.ReadError
	var valErr *svg.ValueError
	switch {
	case errors.As(err, &scanErr):
		return outScanFail
	case errors.As(err, &attrErr):
		return outAttrFail
	case errors.Is(err, extract.ErrNotWeathermap):
		return outScanFail
	case errors.As(err, &valErr):
		// Malformed attribute values on well-formed XML are the paper's
		// "invalid SVG" scan-failure class.
		return outScanFail
	case errors.As(err, &readErr):
		return outXMLFail
	default:
		return outOtherFail
	}
}

// procScratch is one worker's reusable per-snapshot state: the raw-SVG read
// buffer and the Algorithm 1 result slices. Together with the attribution
// cache it makes the steady-state loop allocate almost nothing per snapshot.
type procScratch struct {
	buf []byte
	res extract.ScanResult
}

// processSnapshot runs the per-file chain — skip if already processed, read,
// extract, marshal, write — and returns the outcome. It shares no state
// across snapshots except cache and scr, which belong to exactly one worker;
// that is what makes ProcessMap embarrassingly parallel per input.
//
// When wantMap is true the successfully processed snapshot is also returned
// so Emit can forward it without re-reading the YAML. Snapshots skipped
// because their YAML already exists are loaded back in that case, so a
// resumed run still emits the complete series; a load failure downgrades
// the skip to outOtherFail rather than emitting a gap silently. The map is a
// fresh value on every call (cache.Attribute clones) and safe to retain.
func (s *Store) processSnapshot(id wmap.MapID, at time.Time, cache *extract.AttributionCache, scr *procScratch, wantMap bool) (outcome, *wmap.Map) {
	if s.HasSnapshot(id, at, ExtYAML) {
		if !wantMap {
			return outProcessed, nil // already processed in an earlier run
		}
		m, err := s.LoadMap(id, at)
		if err != nil {
			return outOtherFail, nil
		}
		return outProcessed, m
	}
	data, err := s.ReadSnapshotInto(scr.buf, id, at, ExtSVG)
	scr.buf = data
	if err != nil {
		return outOtherFail, nil
	}
	if err := extract.ScanBytesInto(&scr.res, data, extract.ScanOptions{VerifyColors: cache.Options().VerifyColors}); err != nil {
		return classify(err), nil
	}
	if len(scr.res.Routers) == 0 && len(scr.res.Links) == 0 {
		return classify(extract.ErrNotWeathermap), nil
	}
	m, err := cache.Attribute(&scr.res, id, at)
	if err != nil {
		return classify(err), nil
	}
	out, err := extract.MarshalYAML(m)
	if err != nil {
		return outOtherFail, nil
	}
	if err := s.WriteSnapshot(id, at, ExtYAML, out); err != nil {
		return outWriteFail, nil
	}
	if !wantMap {
		return outProcessed, nil
	}
	return outProcessed, m
}

// ProcessMap converts every stored SVG snapshot of one map into its YAML
// counterpart, skipping snapshots whose YAML already exists. Unprocessable
// files are counted by failure class and left in place, exactly as the
// paper keeps its malformed originals.
//
// ProcessMap is the sequential entry point; ProcessMapParallel fans the
// same per-snapshot chain out to a worker pool.
func (s *Store) ProcessMap(id wmap.MapID, opt extract.Options, progress func(done, total int)) (ProcessReport, error) {
	return s.ProcessMapParallel(context.Background(), id, ProcessOptions{
		Workers:  1,
		Extract:  opt,
		Progress: progress,
	})
}

// LoadMap reads and decodes one processed YAML snapshot.
func (s *Store) LoadMap(id wmap.MapID, at time.Time) (*wmap.Map, error) {
	data, err := s.ReadSnapshot(id, at, ExtYAML)
	if err != nil {
		return nil, err
	}
	return extract.UnmarshalYAML(data)
}
