// Package peeringdb provides a miniature stand-in for the PeeringDB
// interconnection database, sufficient for the paper's link-upgrade case
// study (Figure 6): it records the announced capacity of peering sessions
// over time, so that a capacity increase observed on the weather map can be
// cross-validated against the database update that announced it.
//
// PeeringDB proper is a public registry where networks self-report their
// presence at internet exchanges, including port capacities; the paper uses
// it to confirm that the AMS-IX load drop of March 2022 matches a 400 to
// 500 Gbps upgrade. This package models just that slice: per-peering
// capacity records with update timestamps and history.
package peeringdb

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Record is one capacity announcement for a peering.
type Record struct {
	Peering string    // e.g. "AMS-IX"
	Network string    // announcing network, e.g. "OVH"
	Gbps    int       // announced total capacity
	Updated time.Time // announcement time
	Comment string
}

// DB is an in-memory capacity registry with full history. It is safe for
// concurrent use.
type DB struct {
	mu      sync.RWMutex
	history map[string][]Record // peering -> records sorted by Updated
}

// New returns an empty database.
func New() *DB {
	return &DB{history: make(map[string][]Record)}
}

// Announce appends a capacity record. Records may arrive out of order;
// history stays sorted by update time.
func (db *DB) Announce(rec Record) error {
	if rec.Peering == "" {
		return fmt.Errorf("peeringdb: record without peering name")
	}
	if rec.Gbps <= 0 {
		return fmt.Errorf("peeringdb: non-positive capacity %d for %s", rec.Gbps, rec.Peering)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	h := append(db.history[rec.Peering], rec)
	sort.SliceStable(h, func(i, j int) bool { return h[i].Updated.Before(h[j].Updated) })
	db.history[rec.Peering] = h
	return nil
}

// Upgrade describes a detected capacity change in the database.
type Upgrade struct {
	Peering    string
	Announced  time.Time
	GbpsBefore int
	GbpsAfter  int
}

// UpgradesBetween returns every capacity change announced within [from, to]
// across all peerings, in chronological order.
func (db *DB) UpgradesBetween(from, to time.Time) []Upgrade {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Upgrade
	for name, h := range db.history {
		for i := 1; i < len(h); i++ {
			if h[i].Gbps == h[i-1].Gbps {
				continue
			}
			if h[i].Updated.Before(from) || h[i].Updated.After(to) {
				continue
			}
			out = append(out, Upgrade{
				Peering:    name,
				Announced:  h[i].Updated,
				GbpsBefore: h[i-1].Gbps,
				GbpsAfter:  h[i].Gbps,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Announced.Equal(out[j].Announced) {
			return out[i].Announced.Before(out[j].Announced)
		}
		return out[i].Peering < out[j].Peering
	})
	return out
}
