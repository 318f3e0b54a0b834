//go:build unix

package compat

// spillMmapSupported reports whether this build maps spill files
// (spill_mmap.go); spill_fallback_test.go reports false.
const spillMmapSupported = true
