// Command area gives the fixture's exports their production callers.
package main

import "internal/shapes"

func main() {
	println(shapes.Total([]shapes.Shape{shapes.Square{Side: 2}}))
}
