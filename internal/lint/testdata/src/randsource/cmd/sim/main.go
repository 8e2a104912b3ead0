// Command sim calls the fixture packages so their exports have a
// production caller.
package main

import (
	"internal/population"
	"internal/supervise"
	"internal/trace"
)

func main() {
	population.Step()
	population.Timed(func() {})
	supervise.Recover(0, func() {})
	trace.Elapsed(func() {})
}
