package compat

import (
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"
)

// hostLittleEndian reports whether the host matches the spill file's
// little-endian slot encoding, which is what lets a mapped slot be
// reinterpreted in place instead of decoded.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// slotHeaderBytes is the fixed per-slot header: the graph epoch the
// slot's payload was computed at, little-endian. Readers hand write and
// read the epoch they expect; a mismatch means the slot predates the
// shard's current data and must not be served. Eight bytes keeps every payload 8-byte aligned for
// the zero-copy mapping views.
const slotHeaderBytes = 8

// shardSpill is a file holding every shard of a ShardedMatrix in a
// fixed-layout slot: the engine's cold store (a temporary file), or a
// saved engine file past its header (persist.go). A slot is an 8-byte
// little-endian graph-epoch header, then the row bit words
// little-endian, then the packed distance entries (raw bytes for uint8
// storage, little-endian for the int32 fallback). Slots are written
// with WriteAt, so the writer (the eviction path, always under the
// matrix lock) needs no seeking state.
//
// Reads come in three flavours. On platforms that support it the
// whole file is memory-mapped read-only at creation (spill_mmap.go);
// on a little-endian host a mapped slot can then be served as a
// zero-copy *view* — the slot bytes reinterpreted in place as the
// shard's []uint64 / distance slices (slots are 8-byte aligned for
// exactly this), so a reload costs no decode at all and resident
// view-backed shards occupy no heap. Where views do not apply (mapped
// big-endian hosts, or reloads during construction, whose narrow→wide
// retry may close the file under them), read decodes out of the
// mapping into caller buffers;
// with no mapping at all (ShardedOptions.DisableMmap, non-unix
// builds) it falls back to ReadAt into a caller-owned scratch buffer.
// None of the read paths hold spill-internal mutable state; write
// keeps a private encode buffer and relies on its callers holding one
// lock.
//
// Mutations make slots rewritable, which collides with the zero-copy
// views: the mapping is MAP_SHARED, so overwriting a slot that ever
// served a view would tear data out from under callers holding
// immutable row slices. A slot is therefore written in place only
// while it has never been viewed; once viewed, the next write
// *relocates* the slot append-only to the end of the file and the old
// bytes are never touched again (the exposed views keep them alive).
// Relocated slots land beyond the fixed-length mapping, so they are
// served by the decode paths (ReadAt) — never as views again.
//
// A temporary spill file is unlinked immediately after creation when
// the platform allows it (the usual unix anonymous-tempfile idiom), so
// crashed processes leak no disk; close unmaps, releases the descriptor
// and removes the file if the early unlink was refused. close is
// idempotent.
type shardSpill struct {
	f       *os.File
	path    string // non-empty only when the early unlink failed
	offsets []int64
	sizes   []int64 // full slot sizes (header + payload), for relocation
	end     int64   // append cursor for relocating viewed slots
	viewed  []bool  // slot has served a zero-copy view; never overwritten
	data    []byte  // read-only mapping of the whole file; nil = ReadAt fallback
	wbuf    []byte  // write-encode scratch, sized by the first write, guarded by the owner's lock
	closed  bool

	failWrite error // test hook: non-nil fails every write with this error
}

// newShardSpill creates the spill file in dir ("" = the system temp
// directory) with one slot per entry of sizes (payload bytes; the
// 8-byte epoch header is added internally). useMmap asks for the
// memory-mapped read path; when the platform refuses (or the build
// lacks mmap support) the spill silently keeps the portable ReadAt
// fallback.
func newShardSpill(dir string, sizes []int64, useMmap bool) (*shardSpill, error) {
	f, err := os.CreateTemp(dir, "signedteams-shards-*.spill")
	if err != nil {
		return nil, fmt.Errorf("compat: creating shard spill file: %w", err)
	}
	sp := newSlotFile(f, 0, sizes)
	if err := os.Remove(f.Name()); err != nil {
		sp.path = f.Name() // e.g. windows: defer removal to close
	}
	if useMmap && sp.end > 0 {
		// The mapping needs the final length up front; WriteAt through
		// the descriptor stays coherent with a MAP_SHARED mapping of
		// the same file. Relocated slots grow the file past the mapping
		// and are served by ReadAt instead.
		if err := f.Truncate(sp.end); err == nil {
			sp.mapFile()
		}
	}
	return sp, nil
}

// newSlotFile lays out one slot per entry of sizes (payload bytes, plus
// the epoch header) back to back in f from byte base on: the layout of
// the temporary spill and of a saved engine file (persist.go). base and
// the sizes are multiples of 8, keeping every slot aligned for views.
func newSlotFile(f *os.File, base int64, sizes []int64) *shardSpill {
	sp := &shardSpill{
		f:       f,
		offsets: make([]int64, len(sizes)),
		sizes:   make([]int64, len(sizes)),
		viewed:  make([]bool, len(sizes)),
	}
	off := base
	for i, size := range sizes {
		sp.offsets[i] = off
		sp.sizes[i] = size + slotHeaderBytes
		off += sp.sizes[i]
	}
	sp.end = off
	return sp
}

// mapFile maps the file's first sp.end bytes read-only, keeping the
// ReadAt fallback when the platform refuses.
func (sp *shardSpill) mapFile() {
	if data, err := mmapSpill(sp.f, sp.end); err == nil {
		sp.data = data
	}
}

// canView reports whether slots can be served as zero-copy views:
// the file is mapped and the host's byte order matches the on-disk
// little-endian encoding.
func (sp *shardSpill) canView() bool { return sp.data != nil && hostLittleEndian }

// view returns slot i reinterpreted in place as shard buffers — no
// copy, no decode; the slices alias the read-only mapping and are
// valid until close. Exactly one of d8Len and d32Len is non-zero,
// matching the active packing. Callers check canView first; view
// additionally refuses (ok=false) slots that were relocated beyond the
// mapping, slots whose stored epoch is not the expected one, and
// misaligned offsets (which the slot padding rules out). A served view
// marks the slot: later writes relocate instead of overwriting it, so
// the returned slices are immutable for the life of the mapping.
func (sp *shardSpill) view(i int, epoch uint64, bitsLen, d8Len, d32Len int) (bits []uint64, d8 []uint8, d32 []int32, ok bool) {
	off := sp.offsets[i]
	if !sp.canView() || off&7 != 0 || off+sp.sizes[i] > int64(len(sp.data)) {
		return nil, nil, nil, false
	}
	if binary.LittleEndian.Uint64(sp.data[off:]) != epoch {
		return nil, nil, nil, false
	}
	sp.viewed[i] = true
	b := sp.data[off+slotHeaderBytes:]
	if bitsLen > 0 {
		bits = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), bitsLen)
	}
	b = b[bitsLen*8:]
	if d8Len > 0 {
		d8 = b[:d8Len:d8Len]
	} else if d32Len > 0 {
		d32 = unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), d32Len)
	}
	return bits, d8, d32, true
}

// write stores shard i's buffers into its slot, tagged with the graph
// epoch they were computed at. Exactly one of dist8 and dist32 is
// non-nil, matching the matrix's active packing. A slot that has served
// a zero-copy view is never overwritten — the write relocates it to the
// end of the file, leaving the viewed bytes untouched for the life of
// the mapping. Callers serialise writes (the matrix lock); reads of
// other slots may run concurrently.
func (sp *shardSpill) write(i int, epoch uint64, bits []uint64, dist8 []uint8, dist32 []int32) error {
	if sp.failWrite != nil {
		return fmt.Errorf("compat: spilling shard %d: %w", i, sp.failWrite)
	}
	if sp.viewed[i] {
		sp.offsets[i] = sp.end
		sp.end += sp.sizes[i]
		sp.viewed[i] = false // the fresh location has never been exposed
	}
	if int64(cap(sp.wbuf)) < sp.sizes[i] {
		sp.wbuf = make([]byte, 0, sp.sizes[i])
	}
	b := binary.LittleEndian.AppendUint64(sp.wbuf[:0], epoch)
	for _, w := range bits {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	if dist8 != nil {
		b = append(b, dist8...)
	} else {
		for _, d := range dist32 {
			b = binary.LittleEndian.AppendUint32(b, uint32(d))
		}
	}
	if _, err := sp.f.WriteAt(b, sp.offsets[i]); err != nil {
		return fmt.Errorf("compat: spilling shard %d: %w", i, err)
	}
	return nil
}

// read restores shard i's slot into the caller-allocated buffers,
// which must match the sizes the slot was written with, after checking
// that the slot's stored epoch is the expected one (a mismatch means
// the slot holds data from another graph version and is reported as an
// error). scratch is a caller-owned decode buffer for the ReadAt paths
// (grown as needed and returned for reuse; ignored and returned as-is
// on the mmap path), so concurrent readers of different shards never
// share state.
func (sp *shardSpill) read(i int, epoch uint64, bits []uint64, dist8 []uint8, dist32 []int32, scratch []byte) ([]byte, error) {
	size := slotHeaderBytes + len(bits)*8
	if dist8 != nil {
		size += len(dist8)
	} else {
		size += len(dist32) * 4
	}
	off := sp.offsets[i]
	var b []byte
	if sp.data != nil && off+int64(size) <= int64(len(sp.data)) {
		b = sp.data[off : off+int64(size)]
	} else {
		// No mapping, or the slot was relocated beyond it.
		if cap(scratch) < size {
			scratch = make([]byte, size)
		}
		scratch = scratch[:size]
		if _, err := sp.f.ReadAt(scratch, off); err != nil {
			return scratch, fmt.Errorf("compat: reloading shard %d: %w", i, err)
		}
		b = scratch
	}
	if got := binary.LittleEndian.Uint64(b); got != epoch {
		return scratch, fmt.Errorf("compat: reloading shard %d: spill slot is at epoch %d, want %d", i, got, epoch)
	}
	b = b[slotHeaderBytes:]
	for j := range bits {
		bits[j] = binary.LittleEndian.Uint64(b[j*8:])
	}
	b = b[len(bits)*8:]
	if dist8 != nil {
		copy(dist8, b)
	} else {
		for j := range dist32 {
			dist32[j] = int32(binary.LittleEndian.Uint32(b[j*4:]))
		}
	}
	return scratch, nil
}

// close unmaps and releases the spill file. It is idempotent: second
// and later calls are no-ops returning nil.
func (sp *shardSpill) close() error {
	if sp.closed {
		return nil
	}
	sp.closed = true
	var err error
	if sp.data != nil {
		err = munmapSpill(sp.data)
		sp.data = nil
	}
	if cerr := sp.f.Close(); err == nil {
		err = cerr
	}
	if sp.path != "" {
		if rmErr := os.Remove(sp.path); err == nil {
			err = rmErr
		}
	}
	return err
}
