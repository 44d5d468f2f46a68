//go:build go1.24

package fl

import (
	"runtime"
	"testing"
	"weak"
)

// TestMeanAddRetainsNothing pins that a mean-mode Add folds the
// contribution and keeps no reference to it: once the caller drops the
// payload it is collectable, so a round holds O(dim) memory however many
// clients it collects. (The weak package needs Go 1.24, above the
// module's minimum, hence the build constraint.)
func TestMeanAddRetainsNothing(t *testing.T) {
	const dim = 3*minChunk + 5
	a := NewAggregator(2)
	defer a.Close()
	a.Open(0, 1)
	payload := new([dim]float64)
	for j := range payload {
		payload[j] = float64(j)
	}
	wp := weak.Make(payload)
	if err := a.Add(0, payload[:], 1); err != nil {
		t.Fatal(err)
	}
	payload = nil
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("mean-mode Add retained the contribution")
	}
	if _, ok := a.Reduce(make([]float64, dim)); !ok {
		t.Fatal("Reduce failed")
	}
}
