package lts

import (
	"testing"

	"effpi/internal/types"
)

// SetHashVector replaces the state table's hash for the rest of the test.
func SetHashVector(t testing.TB, h func([]types.ID) uint64) {
	old := hashVector
	hashVector = h
	t.Cleanup(func() { hashVector = old })
}
