// Package events is the streaming evolution-event subsystem: incremental
// per-snapshot detectors that turn the weather-map stream into discrete,
// typed evolution events — topology churn, parallel-link capacity upgrades
// cross-validated against PeeringDB, make-before-break maintenance drains,
// and congestion onset/clear with hysteresis.
//
// The same detectors back two consumers: the offline figure folds in
// internal/analysis (which predate this package and were refactored onto
// it) and the tsdb write path, which runs a Detector per map at append
// time, persists the emitted events in a CRC-framed event log, and fans
// them out live over SSE through a Broadcaster.
//
// Determinism is the load-bearing property: an event stream is a pure
// function of the snapshot sequence, so a resumed (crashed and reopened)
// ingest re-detects exactly the events an uninterrupted run would have,
// and the archive bytes come out identical.
package events

import (
	"fmt"
	"strconv"
	"time"

	"ovhweather/internal/wmap"
)

// Type classifies an evolution event. The numeric values are persisted in
// the archive event log and must not be renumbered.
type Type uint8

const (
	// TypeChurn is a debounced topology change: a node or a group of
	// parallel links appeared or vanished and stayed that way.
	TypeChurn Type = 1
	// TypeUpgrade is a parallel-link-count step increase toward a peering
	// (the paper's Figure 6 arrow A), optionally confirmed by a PeeringDB
	// capacity announcement.
	TypeUpgrade Type = 2
	// TypeMaintenance is a make-before-break candidate: one member of a
	// parallel group drained to ~0 while its siblings absorbed the load.
	TypeMaintenance Type = 3
	// TypeCongestionOnset fires when a link direction crosses the upper
	// hysteresis threshold.
	TypeCongestionOnset Type = 4
	// TypeCongestionClear fires when a congested direction falls below the
	// lower hysteresis threshold.
	TypeCongestionClear Type = 5

	maxType = TypeCongestionClear
)

// String returns the wire name used in JSON responses and CLI flags.
func (t Type) String() string {
	switch t {
	case TypeChurn:
		return "churn"
	case TypeUpgrade:
		return "upgrade"
	case TypeMaintenance:
		return "maintenance"
	case TypeCongestionOnset:
		return "congestion-onset"
	case TypeCongestionClear:
		return "congestion-clear"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Valid reports whether t is a known event type.
func (t Type) Valid() bool { return t >= TypeChurn && t <= maxType }

// MarshalJSON emits the wire name, so json.Marshal of an Event agrees with
// the hand-built /api/v1/events encoding.
func (t Type) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, t.String()), nil
}

// UnmarshalJSON inverts MarshalJSON.
func (t *Type) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("events: bad type %s", b)
	}
	ty, err := ParseType(s)
	if err != nil {
		return err
	}
	*t = ty
	return nil
}

// ParseType inverts String.
func ParseType(s string) (Type, error) {
	for t := TypeChurn; t <= maxType; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("events: unknown event type %q", s)
}

// Event is one detected evolution event. Which fields are meaningful
// depends on Type:
//
//   - churn, node:  Node, Delta (net node-count change, ±1 per node)
//   - churn, link:  A, B, LabelA, LabelB, Delta (net parallel-count change)
//   - upgrade:      Node (the peering), Delta (added link count),
//     Confirmed/Gbps when a PeeringDB announcement matched
//   - maintenance:  A→B direction, LabelA, Ordinal (drained member),
//     Load (the member's load before the drain)
//   - congestion-*: A→B direction, LabelA, Ordinal, Load (the reading
//     that crossed the threshold)
type Event struct {
	Map       wmap.MapID
	Type      Type
	Time      time.Time // when the change happened (not when it was confirmed)
	Node      string
	A, B      string
	LabelA    string
	LabelB    string
	Ordinal   int
	Delta     int
	Load      wmap.Load
	Confirmed bool
	Gbps      int

	// Summary is the one-line human description, rendered once — at
	// detection by Detector.Observe, or at archive decode — so serving an
	// event never re-runs Summarize's fmt work per request. Hand-built
	// events may leave it empty; consumers fall back to Summarize.
	Summary string
}

// Summarize renders the one-line human description from the typed fields.
// Most callers should read the prebuilt Summary field instead.
func (e *Event) Summarize() string {
	switch e.Type {
	case TypeChurn:
		if e.Node != "" {
			if e.Delta >= 0 {
				return fmt.Sprintf("node %s added", e.Node)
			}
			return fmt.Sprintf("node %s removed", e.Node)
		}
		if e.Delta >= 0 {
			return fmt.Sprintf("+%d link(s) %s — %s", e.Delta, e.A, e.B)
		}
		return fmt.Sprintf("-%d link(s) %s — %s", -e.Delta, e.A, e.B)
	case TypeUpgrade:
		if e.Confirmed {
			return fmt.Sprintf("%s grew by %d parallel link(s), confirmed at %d Gbps", e.Node, e.Delta, e.Gbps)
		}
		return fmt.Sprintf("%s grew by %d parallel link(s)", e.Node, e.Delta)
	case TypeMaintenance:
		return fmt.Sprintf("drain on %s -> %s (parallel %d): %s%% to ~0 while siblings absorb",
			e.A, e.B, e.Ordinal+1, e.Load)
	case TypeCongestionOnset:
		return fmt.Sprintf("%s -> %s (parallel %d) hot: %s", e.A, e.B, e.Ordinal+1, e.Load)
	case TypeCongestionClear:
		return fmt.Sprintf("%s -> %s (parallel %d) cleared: %s", e.A, e.B, e.Ordinal+1, e.Load)
	}
	return e.Type.String()
}

// Config tunes the detectors. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// ChurnDebounce is how long a topology change must persist before it
	// becomes an event; an opposite change inside the window cancels it
	// (flap suppression). Zero emits on the snapshot after the change.
	ChurnDebounce time.Duration
	// CongestionOn / CongestionOff are the hysteresis thresholds: a
	// direction becomes congested at load >= On and clears at load < Off.
	CongestionOn  wmap.Load
	CongestionOff wmap.Load
	// DrainHigh / DrainLow bound the make-before-break signature: a member
	// previously loaded >= DrainHigh drops to <= DrainLow in one step.
	DrainHigh wmap.Load
	DrainLow  wmap.Load
	// DBWindow is the ± window around a detected upgrade within which a
	// PeeringDB capacity announcement counts as confirmation.
	DBWindow time.Duration
}

// DefaultConfig returns the parameters used by the archive writer: a
// 10-minute (two-snapshot) churn debounce, the paper's 60 % congestion
// threshold with a 45 % clear level, a 10 %→2 % drain signature, and a
// one-week PeeringDB confirmation window (the Figure 6 tolerance).
func DefaultConfig() Config {
	return Config{
		ChurnDebounce: 10 * time.Minute,
		CongestionOn:  60,
		CongestionOff: 45,
		DrainHigh:     10,
		DrainLow:      2,
		DBWindow:      7 * 24 * time.Hour,
	}
}
