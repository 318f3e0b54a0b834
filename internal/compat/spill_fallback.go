// The portable spill read path for platforms without mmap support:
// newShardSpill keeps sp.data nil, so every reload goes through ReadAt
// into a caller-owned scratch buffer. Behaviour is byte-identical to
// the mapped path (the agreement tests run the fallback explicitly via
// ShardedOptions.DisableMmap on every platform).

//go:build !unix

package compat

import (
	"errors"
	"os"
)

var errMmapUnsupported = errors.New("compat: spill mmap unsupported on this platform")

// mmapSpill always fails on this platform; newShardSpill falls back to
// ReadAt-based reloads.
func mmapSpill(*os.File, int64) ([]byte, error) {
	return nil, errMmapUnsupported
}

// munmapSpill is never reached on this platform (mmapSpill never
// returns a mapping).
func munmapSpill([]byte) error { return nil }
