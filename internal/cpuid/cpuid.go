// Package cpuid holds the one CPU-feature check the assembly kernels share:
// whether the CPU and the OS let a program use AVX-512F.  internal/rng's
// eight-lane flip draw and internal/game's gather walk both read it once,
// at package init, into a switch their tests can clear.
package cpuid

// AVX512 reports whether the CPU has AVX512F (CPUID leaf 7, EBX bit 16) and
// the OS saves the opmask and zmm state (OSXSAVE, then XCR0 bits 1, 2 and
// 5–7).  It is always false under the purego tag and on every GOARCH but
// amd64.
func AVX512() bool { return avx512 }

var avx512 = hasAVX512()
