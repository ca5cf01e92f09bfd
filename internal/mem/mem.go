// Package mem models the physical memories of a two-level NUMA machine:
// one global memory reachable by every processor over the shared bus, and
// one local memory per processor module (§2.2 of the paper).
//
// Memory is divided into page frames. Frames carry real page contents so
// that the NUMA manager's migration, replication, sync and flush operations
// move actual data; tests exploit this to prove that the consistency
// protocol never loses or duplicates writes.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Kind distinguishes the two levels of the memory hierarchy.
type Kind int

// Frame kinds.
const (
	Global Kind = iota // shared memory on the IPC bus
	Local              // memory on one processor module
)

func (k Kind) String() string {
	switch k {
	case Global:
		return "global"
	case Local:
		return "local"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Frame is one physical page frame. Its contents are allocated lazily on
// first access, so large sparsely-touched memories are cheap to model.
// A machine builds one record per frame of every pool, so the fields are
// packed: 40 bytes a frame.
type Frame struct {
	data     []byte
	pageSize int32
	index    int32 // position within its pool
	proc     int32 // owning node for Local frames; -1 for Global
	kind     uint8 // a Kind
	inUse    bool
}

// Kind reports which level of the hierarchy the frame belongs to.
//
//numalint:hotpath
func (f *Frame) Kind() Kind { return Kind(f.kind) }

// Proc reports the node owning a local frame, or -1 for global frames.
// (On the ACE node == processor, hence the name.)
//
//numalint:hotpath
func (f *Frame) Proc() int { return int(f.proc) }

// Index reports the frame's position within its pool.
//
//numalint:hotpath
func (f *Frame) Index() int { return int(f.index) }

// PageSize reports the frame's size in bytes.
//
//numalint:hotpath
func (f *Frame) PageSize() int { return int(f.pageSize) }

// InUse reports whether the frame is currently allocated.
func (f *Frame) InUse() bool { return f.inUse }

// String identifies the frame for diagnostics.
func (f *Frame) String() string {
	if f.Kind() == Global {
		return fmt.Sprintf("global[%d]", f.index)
	}
	return fmt.Sprintf("local%d[%d]", f.proc, f.index)
}

// Data returns the frame's backing bytes, allocating them zeroed on first
// use.
//
//numalint:hotpath
func (f *Frame) Data() []byte {
	if f.data == nil {
		//numalint:coldpath lazy first touch: each frame's backing bytes are allocated once
		f.data = make([]byte, f.PageSize())
	}
	return f.data
}

// Zero clears the frame's contents.
//
//numalint:hotpath
func (f *Frame) Zero() {
	if f.data == nil {
		// Never touched; already logically zero.
		return
	}
	clear(f.data)
}

// CopyFrom copies the full page contents of src into f.
//
//numalint:hotpath
func (f *Frame) CopyFrom(src *Frame) {
	if src.pageSize != f.pageSize {
		panic(fmt.Sprintf("mem: copy between mismatched page sizes %d and %d", src.pageSize, f.pageSize))
	}
	if src.data == nil {
		f.Zero()
		return
	}
	copy(f.Data(), src.data)
}

// Equal reports whether two frames hold identical contents.
func (f *Frame) Equal(other *Frame) bool {
	a, b := f.data, other.data
	switch {
	case a == nil && b == nil:
		return true
	case a == nil:
		return allZero(b)
	case b == nil:
		return allZero(a)
	default:
		return string(a) == string(b)
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// checkOff panics unless [off, off+size) lies inside the frame. The one
// unsigned compare rejects a negative off too. The panic value is an
// offsetError whose message is formatted only when printed, so the check
// stays cheap enough to inline into the accessors.
func (f *Frame) checkOff(off, size int) {
	if uint(off) > uint(int(f.pageSize)-size) {
		panic(offsetError{f, off, size})
	}
}

// offsetError is the panic value of an access outside a frame.
type offsetError struct {
	f         *Frame
	off, size int
}

func (e offsetError) Error() string {
	return fmt.Sprintf("mem: access [%d,%d) outside %d-byte frame %s", e.off, e.off+e.size, e.f.pageSize, e.f)
}

// Load32 reads the 32-bit word at byte offset off.
//
//numalint:hotpath
func (f *Frame) Load32(off int) uint32 {
	f.checkOff(off, 4)
	if f.data == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(f.data[off:])
}

// Store32 writes the 32-bit word at byte offset off.
//
//numalint:hotpath
func (f *Frame) Store32(off int, v uint32) {
	f.checkOff(off, 4)
	binary.LittleEndian.PutUint32(f.Data()[off:], v)
}

// Load64 reads the 64-bit word at byte offset off.
//
//numalint:hotpath
func (f *Frame) Load64(off int) uint64 {
	f.checkOff(off, 8)
	if f.data == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(f.data[off:])
}

// Store64 writes the 64-bit word at byte offset off.
//
//numalint:hotpath
func (f *Frame) Store64(off int, v uint64) {
	f.checkOff(off, 8)
	binary.LittleEndian.PutUint64(f.Data()[off:], v)
}

// Load8 reads the byte at offset off.
//
//numalint:hotpath
func (f *Frame) Load8(off int) byte {
	f.checkOff(off, 1)
	if f.data == nil {
		return 0
	}
	return f.data[off]
}

// Store8 writes the byte at offset off.
//
//numalint:hotpath
func (f *Frame) Store8(off int, v byte) {
	f.checkOff(off, 1)
	f.Data()[off] = v
}

// ErrNoFrames is returned when a pool is exhausted.
type ErrNoFrames struct {
	Pool string
}

func (e *ErrNoFrames) Error() string {
	return fmt.Sprintf("mem: no free frames in %s", e.Pool)
}

// Pool is a fixed-size pool of page frames at one level of the hierarchy.
type Pool struct {
	name   string
	kind   Kind
	proc   int
	frames []Frame
	free   []*Frame // LIFO free list

	// Pressure accounting: the most frames ever simultaneously in use,
	// and how many allocation attempts found the pool empty.
	highWater int
	exhausted uint64
}

// NewPool creates a pool of n frames of the given size. For Local pools,
// proc names the owning processor; Global pools use proc -1.
func NewPool(kind Kind, proc, n, pageSize int) *Pool {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d is not a power of two", pageSize))
	}
	if kind == Global {
		proc = -1
	}
	name := "global memory"
	if kind == Local {
		name = fmt.Sprintf("local memory of cpu%d", proc)
	}
	if pageSize > math.MaxInt32 || n > math.MaxInt32 {
		panic(fmt.Sprintf("mem: pool of %d frames of %d bytes is too large", n, pageSize))
	}
	p := &Pool{name: name, kind: kind, proc: proc}
	// One block for all frame records: machine construction used to be one
	// allocation per frame, which dominated the harness's allocation
	// profile (a table run builds many machines).
	p.frames = make([]Frame, n)
	p.free = make([]*Frame, n)
	for i := range p.frames {
		p.frames[i] = Frame{kind: uint8(kind), proc: int32(proc), index: int32(i), pageSize: int32(pageSize)}
		// Hand out low indices first: the LIFO free list pops frame 0
		// first.
		p.free[n-1-i] = &p.frames[i]
	}
	return p
}

// Name returns a human-readable pool name.
func (p *Pool) Name() string { return p.name }

// Size reports the total number of frames.
//
//numalint:hotpath
func (p *Pool) Size() int { return len(p.frames) }

// Free reports the number of unallocated frames.
//
//numalint:hotpath
func (p *Pool) Free() int { return len(p.free) }

// InUse reports the number of allocated frames.
func (p *Pool) InUse() int { return len(p.frames) - len(p.free) }

// HighWater reports the most frames ever simultaneously allocated — the
// pool's true working footprint, independent of whether pressure relief
// (fallback, reclaim) kept later allocations below it.
func (p *Pool) HighWater() int { return p.highWater }

// Exhausted reports how many allocation attempts found the pool empty.
func (p *Pool) Exhausted() uint64 { return p.exhausted }

// Alloc takes a frame from the pool. The frame's previous contents are
// undefined; callers that need zeroed memory must call Zero (the pmap layer
// does this lazily, per §2.3.1).
//
//numalint:hotpath
func (p *Pool) Alloc() (*Frame, error) {
	if len(p.free) == 0 {
		//numalint:coldpath exhaustion: the caller falls back to reclaim or global memory
		p.exhausted++
		return nil, &ErrNoFrames{Pool: p.name}
	}
	f := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	f.inUse = true
	if used := p.InUse(); used > p.highWater {
		p.highWater = used
	}
	return f, nil
}

// Release returns a frame to the pool.
//
//numalint:hotpath
func (p *Pool) Release(f *Frame) {
	if f.Kind() != p.kind || f.Proc() != p.proc {
		panic(fmt.Sprintf("mem: frame %s released to wrong pool %s", f, p.name))
	}
	if !f.inUse {
		panic(fmt.Sprintf("mem: double free of frame %s", f))
	}
	f.inUse = false
	p.free = append(p.free, f) //numalint:coldpath bounded: free-list capacity is preallocated to the pool size
}

// Frame returns the i'th frame of the pool (allocated or not).
func (p *Pool) Frame(i int) *Frame { return &p.frames[i] }

// Memory aggregates the global pool and the per-node local pools of a
// machine. On the two-level ACE every processor is its own node; multi-node
// topologies home several processors on one pool.
type Memory struct {
	pageSize int
	global   *Pool
	local    []*Pool
}

// NewMemory builds the physical memory of a machine with nnodes memory
// nodes, globalFrames frames of global memory and localFrames frames of
// local memory per node.
func NewMemory(nnodes, globalFrames, localFrames, pageSize int) *Memory {
	m := &Memory{pageSize: pageSize}
	m.global = NewPool(Global, -1, globalFrames, pageSize)
	m.local = make([]*Pool, nnodes)
	for i := range m.local {
		m.local[i] = NewPool(Local, i, localFrames, pageSize)
	}
	return m
}

// PageSize reports the machine page size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// Global returns the global memory pool.
//
//numalint:hotpath
func (m *Memory) Global() *Pool { return m.global }

// Local returns node p's local memory pool.
//
//numalint:hotpath
func (m *Memory) Local(p int) *Pool { return m.local[p] }

// NProc reports the number of local pools (nodes; historical name from the
// one-node-per-processor ACE).
func (m *Memory) NProc() int { return len(m.local) }
