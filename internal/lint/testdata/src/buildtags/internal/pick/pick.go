// Package pick declares one function per platform in a file pair; the
// loader must keep exactly one of the pair.
package pick

var picked = pick()
