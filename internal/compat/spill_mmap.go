// The memory-mapped spill read path. Mapping the spill file once at
// creation turns every shard reload into a decode straight out of the
// mapping: no ReadAt syscall, no intermediate copy into a scratch
// buffer, and — because the mapping is immutable shared state — no
// lock-ordering constraint between concurrent readers.
// Eviction writes keep going through WriteAt on the descriptor, which
// the unified page cache keeps coherent with a MAP_SHARED mapping and
// which reports disk-full as an ordinary error instead of a fault.

//go:build unix

package compat

import (
	"os"
	"syscall"
)

// mmapSpill maps size bytes of f read-only and shared. The caller has
// already grown the file to its final length.
func mmapSpill(f *os.File, size int64) ([]byte, error) {
	if int64(int(size)) != size {
		return nil, syscall.EOVERFLOW
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapSpill releases a mapping created by mmapSpill.
func munmapSpill(data []byte) error {
	return syscall.Munmap(data)
}
