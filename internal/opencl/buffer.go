package opencl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MemFlag mirrors cl_mem_flags access modes.
type MemFlag int

const (
	// ReadWrite allows kernel reads and writes.
	ReadWrite MemFlag = iota
	// ReadOnly is host-written, kernel-read.
	ReadOnly
	// WriteOnly is kernel-written, host-read — the gamma output buffer.
	WriteOnly
)

// Buffer is a device global-memory allocation. Data lives in host-process
// memory (this is a simulator) but the access discipline and the
// transfer-cost accounting follow the OpenCL model.
type Buffer struct {
	name  string
	flags MemFlag
	data  []byte
	// parent is non-nil for sub-buffer views.
	parent *Buffer
	offset int64
}

// NewBuffer allocates a device buffer of size bytes.
func NewBuffer(name string, flags MemFlag, size int64) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("opencl: buffer %q size %d must be positive", name, size)
	}
	return &Buffer{name: name, flags: flags, data: make([]byte, size)}, nil
}

// Name returns the diagnostic name.
func (b *Buffer) Name() string { return b.name }

// Size returns the allocation size in bytes.
func (b *Buffer) Size() int64 { return int64(len(b.data)) }

// Flags returns the access mode.
func (b *Buffer) Flags() MemFlag { return b.flags }

// SubBuffer creates an offset view — how the paper's host-level combining
// addresses region wid·L/N of the destination (Section III-E-1).
func (b *Buffer) SubBuffer(name string, offset, size int64) (*Buffer, error) {
	if offset < 0 || size <= 0 || offset+size > b.Size() {
		return nil, fmt.Errorf("opencl: sub-buffer [%d,%d) outside %q of size %d", offset, offset+size, b.name, b.Size())
	}
	return &Buffer{name: name, flags: b.flags, data: b.data[offset : offset+size], parent: b, offset: offset}, nil
}

// Float32Len returns the capacity in float32 elements.
func (b *Buffer) Float32Len() int64 { return b.Size() / 4 }

// WriteFloat32s bulk-writes a float32 slice starting at element offset —
// the device-side store path used by kernel closures. The encode runs
// word-at-a-time (single 32-bit store per element) over a re-sliced
// window, so the whole batch moves with one bounds check up front.
func (b *Buffer) WriteFloat32s(offset int64, vs []float32) error {
	if offset < 0 || (offset+int64(len(vs)))*4 > b.Size() {
		return fmt.Errorf("opencl: write of %d floats at %d outside buffer %q", len(vs), offset, b.name)
	}
	out := b.data[offset*4 : (offset+int64(len(vs)))*4]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return nil
}

// ReadFloat32s bulk-reads into dst from element offset, word-at-a-time
// over a re-sliced window (the mirror of WriteFloat32s).
func (b *Buffer) ReadFloat32s(offset int64, dst []float32) error {
	if offset < 0 || (offset+int64(len(dst)))*4 > b.Size() {
		return fmt.Errorf("opencl: read of %d floats at %d outside buffer %q", len(dst), offset, b.name)
	}
	in := b.data[offset*4 : (offset+int64(len(dst)))*4]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(in[i*4:]))
	}
	return nil
}

// ErrAccessViolation flags a transfer against the buffer's declared
// access mode.
var ErrAccessViolation = errors.New("opencl: access mode violation")
