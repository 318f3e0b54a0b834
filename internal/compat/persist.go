// The saved packed engine: Save writes a ShardedMatrix to one file and
// OpenSharded maps it back, so a relation is built once (exact SBP
// above all) and queried anywhere. The layout is little-endian, every
// section 8-byte aligned so that mapped slots serve as zero-copy views:
//
//	header   fileHeader, 72 bytes
//	slots    one per shard in the spill slot layout (spill.go), each
//	         tagged with the header's epoch
//
// Version 1 files, which also held per-shard touched-node sets, are
// refused.

package compat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/balance"
	"repro/internal/container"
	"repro/internal/sgraph"
)

const (
	fileMagic    = uint32(0x4b505453) // "STPK"
	fileVersion  = uint32(2)
	maxFileNodes = 1 << 28 // keeps the file size arithmetic in int64 (5n² < 2^63)
)

// fileHeader heads a saved engine file. Wide is the distance packing:
// 0 = uint8, 1 = int32.
type fileHeader struct {
	Magic, Version, Kind, Wide uint32
	Beam, MaxLen, MaxExpanded  uint64
	N, ShardRows               uint64
	Epoch, Fingerprint         uint64
}

var fileHeaderBytes = int64(binary.Size(fileHeader{}))

// graphFingerprint is the FNV-64a hash of g's sorted adjacency and
// signs: a file opens only over the graph it was saved over.
func graphFingerprint(g *sgraph.Graph) uint64 {
	h := fnv.New64a()
	offsets, neigh, signs := g.CSR()
	for _, part := range []any{offsets, neigh, signs} {
		_ = binary.Write(h, binary.LittleEndian, part) // fixed-size slices into a hash: cannot fail
	}
	return h.Sum64()
}

// Save writes the engine to path. It holds a snapshot, so no mutation
// interleaves, rebuilds stale shards first, and works on spilling
// engines too. It writes path+".tmp", syncs it and renames it over
// path, so path never holds a torn file.
func (m *ShardedMatrix) Save(path string) error {
	snap := m.AcquireSnapshot()
	defer snap.Release()
	tmp := path + ".tmp"
	head, err := m.fileHead(snap.epoch)
	if err == nil {
		err = m.writeFile(tmp, head, snap.epoch)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("compat: saving engine: %w", err)
	}
	return nil
}

// fileHead freshens every stale shard and encodes the header at the
// pinned epoch.
func (m *ShardedMatrix) fileHead(epoch uint64) ([]byte, error) {
	fingerprint := graphFingerprint(m.dyn.Graph())
	m.mu.Lock()
	defer m.mu.Unlock()
	for s := 0; s < m.numShards; s++ {
		if err := m.freshLocked(s); err != nil {
			return nil, err
		}
	}
	h := fileHeader{
		Magic: fileMagic, Version: fileVersion, Kind: uint32(m.kind),
		Beam: uint64(m.beam), MaxLen: uint64(m.exact.MaxLen), MaxExpanded: uint64(m.exact.MaxExpanded),
		N: uint64(m.n), ShardRows: uint64(m.shardRows), Epoch: epoch, Fingerprint: fingerprint,
	}
	if m.wide {
		h.Wide = 1
	}
	var head bytes.Buffer
	binary.Write(&head, binary.LittleEndian, &h)
	return head.Bytes(), nil
}

// writeFile writes head and every shard's slot to a new file at path,
// pinning each shard while it is written, and syncs the file.
func (m *ShardedMatrix) writeFile(path string, head []byte, epoch uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	file := newSlotFile(f, int64(len(head)), m.slotSizes())
	_, err = f.Write(head)
	for s := 0; s < m.numShards && err == nil; s++ {
		err = m.withPinned(s, func(sh *shardState) error {
			return file.write(s, epoch, sh.bits, sh.dist8, sh.dist32)
		})
	}
	if err == nil {
		err = f.Truncate(file.end) // the last slot's padding
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenSharded opens a file written by ShardedMatrix.Save as a fully
// resident engine over g, the graph it was saved over. Where the
// platform allows, the file is mapped read-only and every shard is a
// zero-copy view into it, so no rows sit on the heap; elsewhere shards
// decode into heap slabs. A truncated, corrupt or mismatched file is an
// error. Mutations rebuild shards on the heap and never write the file.
func OpenSharded(path string, g *sgraph.Graph) (*ShardedMatrix, error) {
	return openSharded(path, g, true)
}

// openSharded is OpenSharded with the mapping optional, so that tests
// reach the decode path on every platform.
func openSharded(path string, g *sgraph.Graph, useMmap bool) (*ShardedMatrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("compat: opening engine file: %w", err)
	}
	m, err := openHeader(f, g)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("compat: opening %s: %w", path, err)
	}
	if err := m.loadFile(f, useMmap); err != nil {
		m.Close()
		return nil, fmt.Errorf("compat: opening %s: %w", path, err)
	}
	return m, nil
}

// openHeader checks f's header against g and the file's length and
// returns the engine it describes, with no shards loaded. Nothing sized
// by the header is allocated before the length check.
func openHeader(f *os.File, g *sgraph.Graph) (*ShardedMatrix, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var h fileHeader
	if err := binary.Read(io.NewSectionReader(f, 0, fileHeaderBytes), binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("reading header (%d-byte file): %w", st.Size(), err)
	}
	switch {
	case h.Magic != fileMagic:
		return nil, fmt.Errorf("bad magic %#x: not a packed engine file", h.Magic)
	case h.Version != fileVersion:
		return nil, fmt.Errorf("unsupported version %d", h.Version)
	case h.Kind >= uint32(numKinds) || h.Wide > 1:
		return nil, fmt.Errorf("unknown relation kind %d or distance packing %d", h.Kind, h.Wide)
	case h.N != uint64(g.NumNodes()) || h.N > maxFileNodes:
		return nil, fmt.Errorf("file has %d nodes, graph has %d", h.N, g.NumNodes())
	}
	m := newShardedMatrix(Kind(h.Kind), g, ShardedOptions{
		Options: Options{
			BeamWidth: int(min(h.Beam, 1<<31)),
			Exact:     balance.ExactOptions{MaxLen: int(int64(h.MaxLen)), MaxExpanded: int64(h.MaxExpanded)},
		},
		ShardRows: int(min(h.ShardRows, maxFileNodes+1)),
	})
	m.wide = h.Wide == 1
	want := fileHeaderBytes
	for s := 0; s < m.numShards; s++ {
		want += slotHeaderBytes + m.shardBytes(m.shardLen(s))
	}
	switch { // the defaults newShardedMatrix applies must not alter the header
	case uint64(m.shardRows) != h.ShardRows || uint64(m.beam) != h.Beam:
		return nil, fmt.Errorf("bad shard height %d or beam width %d", h.ShardRows, h.Beam)
	case want != st.Size():
		return nil, fmt.Errorf("file is %d bytes, header implies %d", st.Size(), want)
	case graphFingerprint(g) != h.Fingerprint:
		return nil, errors.New("graph fingerprint mismatch: the file was saved over a different graph")
	}
	m.shards = make([]shardState, m.numShards)
	for s := range m.shards {
		m.shards[s].rows, m.shards[s].epoch = m.shardLen(s), h.Epoch
	}
	return m, nil
}

// loadFile makes the checked file f m's spill and every shard resident
// from it, rejecting a slot whose epoch tag is not the header's and a
// row with bits set at or past n. Nothing is ever evicted, so the file
// is never written.
func (m *ShardedMatrix) loadFile(f *os.File, useMmap bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spill = newSlotFile(f, fileHeaderBytes, m.slotSizes())
	if useMmap {
		m.spill.mapFile()
	}
	m.views = m.spill.canView()
	m.lru = container.NewIndexLRU(m.numShards)
	tail := ^uint64(0) << uint(m.n&63) // bits ≥ n in a row's last word
	if m.n&63 == 0 {
		tail = 0
	}
	for s := range m.shards {
		sh, err := m.residentLocked(s)
		if err != nil {
			return err
		}
		for r := 0; r < sh.rows; r++ {
			if sh.bits[(r+1)*m.stride-1]&tail != 0 {
				return fmt.Errorf("row %d sets bits at or past node %d", s*m.shardRows+r, m.n)
			}
		}
	}
	m.spillLoads.Store(0)
	m.publishLocked()
	return nil
}
