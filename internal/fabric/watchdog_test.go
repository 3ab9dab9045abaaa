package fabric

import "testing"

func TestWatchdogFlagsAfterThreshold(t *testing.T) {
	wd := NewWatchdog(2)
	var flagged []string
	wd.OnFlag(func(id string) { flagged = append(flagged, id) })
	wd.Report("peer9", "bad digest")
	if wd.IsFlagged("peer9") {
		t.Fatal("flagged below threshold")
	}
	wd.Report("peer9", "bad digest again")
	if !wd.IsFlagged("peer9") {
		t.Fatal("not flagged at threshold")
	}
	if len(flagged) != 1 || flagged[0] != "peer9" {
		t.Fatalf("callbacks = %v", flagged)
	}
	// More reports do not re-fire the callback.
	wd.Report("peer9", "still bad")
	if len(flagged) != 1 {
		t.Fatal("callback re-fired")
	}
	if wd.Reports("peer9") != 3 {
		t.Fatalf("reports = %d", wd.Reports("peer9"))
	}
	if got := wd.Flagged(); len(got) != 1 || got[0] != "peer9" {
		t.Fatalf("Flagged() = %v", got)
	}
}
