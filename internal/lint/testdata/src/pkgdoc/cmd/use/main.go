// Command use calls the fixture packages so their exports have a
// production caller.
package main

import (
	"internal/nodoc"
	"internal/withdoc"
)

func main() {
	nodoc.X()
	withdoc.X()
}
