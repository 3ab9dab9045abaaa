package ledger

import (
	"testing"

	"socialchain/internal/storage/storagetest"
)

func TestMain(m *testing.M) { storagetest.Main(m) }
