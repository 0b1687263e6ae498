package congestedclique

import (
	"testing"

	"congestedclique/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
