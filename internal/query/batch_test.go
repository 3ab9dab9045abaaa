package query_test

import (
	"bytes"
	"strings"
	"testing"

	"socialchain/internal/contracts"
)

func TestGetManyMatchesSerialData(t *testing.T) {
	fx := newQueryFixture(t, 4)
	for _, workers := range []int{1, 3, 8} {
		items := fx.client.Query().GetMany(fx.txIDs, workers)
		if len(items) != len(fx.txIDs) {
			t.Fatalf("workers=%d: %d items for %d ids", workers, len(items), len(fx.txIDs))
		}
		for i, item := range items {
			if item.Err != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, item.Err)
			}
			if item.TxID != fx.txIDs[i] || item.Record.TxID != fx.txIDs[i] {
				t.Fatalf("workers=%d item %d misaligned: %s vs %s", workers, i, item.TxID, fx.txIDs[i])
			}
			if !item.Verified {
				t.Fatalf("workers=%d item %d not verified", workers, i)
			}
			if !bytes.Equal(item.Payload, fx.frames[i].Data) {
				t.Fatalf("workers=%d item %d payload mismatch", workers, i)
			}
		}
	}
}

func TestGetManyReportsPerItemErrors(t *testing.T) {
	fx := newQueryFixture(t, 2)
	ids := []string{fx.txIDs[0], "no-such-tx", fx.txIDs[1]}
	items := fx.client.Query().GetMany(ids, 2)
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("good items errored: %v / %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("missing tx did not error")
	}
	if items[1].Verified || items[1].Payload != nil {
		t.Fatalf("failed item carries data: %+v", items[1])
	}
}

func TestGetManyEmpty(t *testing.T) {
	fx := newQueryFixture(t, 1)
	if items := fx.client.Query().GetMany(nil, 4); len(items) != 0 {
		t.Fatalf("empty batch returned %d items", len(items))
	}
}

func TestPagedIndexQuery(t *testing.T) {
	fx := newQueryFixture(t, 5)
	qe := fx.client.Query()
	var got []string
	token := ""
	for {
		page, err := qe.Page(contracts.IndexSource, fx.client.Identity().ID(), 2, token)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Records) > 2 {
			t.Fatalf("page over limit: %d", len(page.Records))
		}
		for _, rec := range page.Records {
			got = append(got, rec.TxID)
		}
		if page.Next == "" {
			break
		}
		token = page.Next
	}
	if len(got) != 5 {
		t.Fatalf("paged through %d records, want 5", len(got))
	}
	seen := make(map[string]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate record %s across pages", id)
		}
		seen[id] = true
	}
	// The submitted index pages the whole namespace in time order.
	page, err := qe.Page(contracts.IndexSubmitted, "", 100, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 5 {
		t.Fatalf("submitted index returned %d records", len(page.Records))
	}
	for i := 1; i < len(page.Records); i++ {
		if page.Records[i].Submitted.Before(page.Records[i-1].Submitted) {
			t.Fatal("submitted index not time-ordered")
		}
	}
	// Records carry the denormalised label the label index serves.
	pageL, err := qe.Page(contracts.IndexLabel, fx.labels[0], 100, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(pageL.Records) == 0 {
		t.Fatal("label page empty")
	}
	for _, rec := range pageL.Records {
		if rec.Label != fx.labels[0] {
			t.Fatalf("record %s label %q, want %q", rec.TxID, rec.Label, fx.labels[0])
		}
	}
}

func TestPagedUnknownIndex(t *testing.T) {
	fx := newQueryFixture(t, 1)
	if _, err := fx.client.Query().Page("bogus", "", 10, ""); err == nil {
		t.Fatal("unknown index accepted")
	}
}

// TestPageRejectsMalformedCursor: a cursor is the world state's index
// token, passed through untouched, so one that does not decode as a token
// is an error, never a silent restart from the first page.
func TestPageRejectsMalformedCursor(t *testing.T) {
	fx := newQueryFixture(t, 2)
	qe := fx.client.Query()
	for _, cursor := range []string{
		"not a token!!",
		"abc", // odd-length hex
		"MHw", // a cursor of the older channel|token form
	} {
		_, err := qe.Page(contracts.IndexSubmitted, "", 1, cursor)
		if err == nil || !strings.Contains(err.Error(), "bad index page token") {
			t.Fatalf("Page with cursor %q: err = %v, want a bad-token error", cursor, err)
		}
	}
}
