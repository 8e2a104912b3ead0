//go:build amd64 && !purego

package cpuid

// hasAVX512 runs the CPUID/XGETBV test behind AVX512.
func hasAVX512() bool
