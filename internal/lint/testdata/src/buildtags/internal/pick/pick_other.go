//go:build !amd64

package pick

func pick() string { return "other" }
