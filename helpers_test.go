package socialchain

import (
	"testing"

	"socialchain/internal/cid"
)

func mustParseCid(t *testing.T, s string) cid.Cid {
	t.Helper()
	c, err := cid.Parse(s)
	if err != nil {
		t.Fatalf("parse cid %q: %v", s, err)
	}
	return c
}
