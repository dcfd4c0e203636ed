package status

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ovhweather/internal/netsim"
)

func at(d, h int) time.Time {
	return time.Date(2021, 8, d, h, 0, 0, 0, time.UTC)
}

func sampleFeed() *Feed {
	return NewFeed(
		Event{ID: "M1", Kind: Maintenance, Start: at(9, 0), End: at(23, 0), Scope: "europe", Description: "window"},
		Event{ID: "U1", Kind: Upgrade, Start: at(2, 0), End: at(2, 12), Scope: "europe", Description: "new routers"},
		Event{ID: "I1", Kind: Incident, Start: at(15, 3), Scope: "europe", Description: "fiber cut"},
	)
}

func TestFeedOrderingAndAccessors(t *testing.T) {
	f := sampleFeed()
	if len(f.events) != 3 {
		t.Fatalf("len = %d", len(f.events))
	}
	evs := f.events
	if evs[0].ID != "U1" || evs[1].ID != "M1" || evs[2].ID != "I1" {
		t.Errorf("order = %v, %v, %v", evs[0].ID, evs[1].ID, evs[2].ID)
	}
}

func TestExplains(t *testing.T) {
	f := sampleFeed()
	if ev := f.Explains(at(10, 0), Maintenance, 0); ev == nil || ev.ID != "M1" {
		t.Errorf("Explains inside window = %+v", ev)
	}
	// Slack stretches the window.
	if ev := f.Explains(at(8, 20), Maintenance, 6*time.Hour); ev == nil {
		t.Error("slack before start should match")
	}
	if ev := f.Explains(at(8, 20), Maintenance, time.Hour); ev != nil {
		t.Error("insufficient slack should not match")
	}
	if ev := f.Explains(at(10, 0), Upgrade, 0); ev != nil {
		t.Errorf("kind filter leaked: %+v", ev)
	}
	if ev := f.Explains(at(20, 0), "", 0); ev == nil {
		t.Error("empty kind should match any")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	f := sampleFeed()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, f.events) {
		t.Errorf("restored %+v, want %+v", back, f.events)
	}
}

func TestFromScenario(t *testing.T) {
	sc := netsim.DefaultScenario()
	feed := FromScenario(sc)
	if len(feed.events) == 0 {
		t.Fatal("empty feed from default scenario")
	}
	var maint, upg int
	for _, e := range feed.events {
		switch e.Kind {
		case Maintenance:
			maint++
		case Upgrade:
			upg++
		}
		if e.ID == "" || e.Scope == "" || e.Description == "" {
			t.Errorf("incomplete event: %+v", e)
		}
	}
	if maint < 3 {
		t.Errorf("maintenance events = %d, want the three removal windows", maint)
	}
	if upg < 5 {
		t.Errorf("upgrade events = %d", upg)
	}

	// The August 2021 dip must be covered by a maintenance window that ends
	// at the restore.
	dip := time.Date(2021, time.August, 9, 0, 0, 0, 0, time.UTC)
	ev := feed.Explains(dip, Maintenance, 12*time.Hour)
	if ev == nil {
		t.Fatal("August 2021 dip not covered by a maintenance window")
	}
	restore := time.Date(2021, time.August, 23, 0, 0, 0, 0, time.UTC)
	if !ev.End.Equal(restore) {
		t.Errorf("maintenance window ends %s, want the restore at %s", ev.End, restore)
	}
}
