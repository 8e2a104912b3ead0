// Package shapes is the deadapi fixture: exported funcs and methods under
// internal/ need a caller outside tests.
package shapes

// Shape is a module interface; cmd/area calls Area only through it.
type Shape interface{ Area() float64 }

// Square implements Shape.
type Square struct{ Side float64 }

// Area satisfies Shape, so the interface call counts as its use.
func (s Square) Area() float64 { return s.Side * s.Side }

// String satisfies fmt.Stringer, which the module never names.
func (s Square) String() string { return "square" }

// Total has a production caller.
func Total(shapes []Shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Perimeter is called by nothing outside tests.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want "exported method Perimeter has no caller outside tests"

// Scale is called by nothing outside tests.
func Scale(s Square, k float64) Square { return Square{Side: s.Side * k} } // want "exported func Scale has no caller outside tests"

// Unit builds inputs for another package's tests.
//
//lint:allow deadapi fixture: another package's tests build their squares with it
func Unit() Square { return Square{Side: 1} }
