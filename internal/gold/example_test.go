package gold_test

import (
	"fmt"

	"repro/internal/gold"
)

// ExampleNewSet builds DOMINO's signature family and detects a code inside
// a combined trigger.
func ExampleNewSet() {
	set, err := gold.NewSet(7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("codes: %d of length %d\n", set.Count(), set.Len())

	// A receiver detects its own code inside a combined trigger of four.
	rx := make([]float64, set.Len())
	set.AddShifted(rx, 1, 0, 3, 40, 77, 101)
	c := gold.NewCorrelator(set)
	fmt.Printf("own code detected: %v\n", c.Detect(rx, 40))
	fmt.Printf("absent code detected: %v\n", c.Detect(rx, 5))
	// Output:
	// codes: 129 of length 127
	// own code detected: true
	// absent code detected: false
}
