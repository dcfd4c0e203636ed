// Package status models the provider's network-status website — the
// maintenance and incident feed the paper's Discussion proposes as an
// augmentation of the weather-map dataset ("OVH also reports planned
// maintenance events and the failures happening in their network in a
// dedicated website. These events could give insights on the purpose of
// some modifications of their network").
//
// The feed pairs naturally with the Figure 4a analysis: a router-count dip
// that coincides with a published maintenance window is planned work, while
// an unexplained dip suggests a failure.
package status

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Kind classifies a status event.
type Kind string

// Event kinds, mirroring the categories of provider status pages.
const (
	Maintenance Kind = "maintenance" // planned work with an announced window
	Incident    Kind = "incident"    // unplanned failure
	Upgrade     Kind = "upgrade"     // capacity or hardware upgrade
)

// Event is one entry of the status feed.
type Event struct {
	ID          string    `json:"id"`
	Kind        Kind      `json:"kind"`
	Start       time.Time `json:"start"`
	End         time.Time `json:"end,omitempty"` // zero when still open
	Scope       string    `json:"scope"`         // map or region affected
	Description string    `json:"description"`
}

// Open reports whether the event has no announced end.
func (e Event) Open() bool { return e.End.IsZero() }

// Feed is an ordered collection of status events.
type Feed struct {
	events []Event
}

// NewFeed returns a feed seeded with the given events, sorted by start.
func NewFeed(events ...Event) *Feed {
	f := &Feed{events: append([]Event(nil), events...)}
	sort.SliceStable(f.events, func(i, j int) bool { return f.events[i].Start.Before(f.events[j].Start) })
	return f
}

// Add appends an event, keeping start order.
func (f *Feed) Add(e Event) {
	f.events = append(f.events, e)
	sort.SliceStable(f.events, func(i, j int) bool { return f.events[i].Start.Before(f.events[j].Start) })
}

// Explains returns the first event of the given kind whose window covers t
// (with a tolerance before the start and after the end, since map changes
// and status posts are never perfectly synchronized), or nil.
func (f *Feed) Explains(t time.Time, kind Kind, slack time.Duration) *Event {
	for i := range f.events {
		e := &f.events[i]
		if kind != "" && e.Kind != kind {
			continue
		}
		start := e.Start.Add(-slack)
		if t.Before(start) {
			continue
		}
		if e.Open() || !t.After(e.End.Add(slack)) {
			return e
		}
	}
	return nil
}

// WriteJSON serializes the feed.
func (f *Feed) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.events)
}
