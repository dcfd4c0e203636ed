package peeringdb

import (
	"testing"
	"time"
)

func day(d int) time.Time {
	return time.Date(2022, 3, d, 0, 0, 0, 0, time.UTC)
}

func seeded(t *testing.T) *DB {
	t.Helper()
	db := New()
	recs := []Record{
		{Peering: "AMS-IX", Network: "OVH", Gbps: 400, Updated: day(1)},
		{Peering: "AMS-IX", Network: "OVH", Gbps: 500, Updated: day(12), Comment: "new 100G link"},
		{Peering: "DE-CIX", Network: "OVH", Gbps: 300, Updated: day(2)},
	}
	for _, r := range recs {
		if err := db.Announce(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestAnnounceValidation(t *testing.T) {
	db := New()
	if err := db.Announce(Record{Gbps: 100, Updated: day(1)}); err == nil {
		t.Error("empty peering should be rejected")
	}
	if err := db.Announce(Record{Peering: "X", Gbps: 0, Updated: day(1)}); err == nil {
		t.Error("zero capacity should be rejected")
	}
}

func TestAnnounceOutOfOrder(t *testing.T) {
	db := New()
	db.Announce(Record{Peering: "X", Gbps: 200, Updated: day(10)})
	db.Announce(Record{Peering: "X", Gbps: 100, Updated: day(1)})
	h := db.history["X"]
	if len(h) != 2 || h[0].Gbps != 100 || h[1].Gbps != 200 {
		t.Errorf("history = %+v", h)
	}
}

func TestUpgradesBetween(t *testing.T) {
	db := seeded(t)
	ups := db.UpgradesBetween(day(1), day(31))
	if len(ups) != 1 {
		t.Fatalf("upgrades = %+v", ups)
	}
	u := ups[0]
	if u.Peering != "AMS-IX" || u.GbpsBefore != 400 || u.GbpsAfter != 500 || !u.Announced.Equal(day(12)) {
		t.Errorf("upgrade = %+v", u)
	}
	if got := db.UpgradesBetween(day(13), day(31)); len(got) != 0 {
		t.Errorf("window after upgrade: %+v", got)
	}
}
