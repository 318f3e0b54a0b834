//go:build !unix

package compat

// spillMmapSupported reports whether this build maps spill files; on
// this platform every reload reads through spill_fallback.go.
const spillMmapSupported = false
