//go:build !amd64 || purego

package cpuid

func hasAVX512() bool { return false }
