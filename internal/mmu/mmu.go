// Package mmu models the per-processor memory management unit of the ACE
// (the Rosetta-C), as seen through the narrow interface the paper's pmap
// layer uses: enter a translation, tighten its protection, remove it, and
// translate on access.
//
// The model preserves the hardware quirk the paper leans on: Rosetta allows
// only a single virtual address per physical page per processor, so entering
// an aliased mapping silently displaces the previous one, producing later
// faults that the machine-independent VM system resolves (§2.1, §2.3.1).
package mmu

import (
	"fmt"

	"numasim/internal/mem"
)

// Prot is a page protection: a bitmask of read/write permission.
type Prot uint8

// Protection values.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1

	ProtReadWrite = ProtRead | ProtWrite
)

// CanRead reports whether the protection permits loads.
//
//numalint:hotpath
func (p Prot) CanRead() bool { return p&ProtRead != 0 }

// CanWrite reports whether the protection permits stores.
//
//numalint:hotpath
func (p Prot) CanWrite() bool { return p&ProtWrite != 0 }

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtWrite:
		return "-w-"
	case ProtReadWrite:
		return "rw-"
	default:
		return fmt.Sprintf("prot(%d)", uint8(p))
	}
}

// Key identifies one translation: the virtual page number qualified by the
// address space it belongs to (the pmap layer packs a space id into the
// high bits). The Rosetta-style MMU is an inverted table shared by all
// address spaces running on its processor.
type Key uint64

// PTE is one virtual-to-physical translation held by an MMU.
type PTE struct {
	Key   Key
	Frame *mem.Frame
	Prot  Prot
}

// Stats counts MMU events of interest to the evaluation.
type Stats struct {
	Enters     uint64 // translations installed
	Removes    uint64 // translations dropped
	AliasDrops uint64 // translations displaced by the one-VA-per-frame rule
	Protects   uint64 // protection changes
}

// tlbSize is the number of direct-mapped software-TLB slots. Keys are
// (space, vpn) pairs, so consecutive pages of one address space fill
// consecutive slots; 64 slots cover the working set of the paper's
// applications' inner loops.
const tlbSize = 64

// tlbSlot caches one translation: a copy of the PTE's frame and
// protection, so a hit reads one slot and no PTE. Every change to a
// cached PTE must reach its slot: Enter refills it, Protect updates it,
// and every removal path (Remove, RemoveFrame, alias displacement,
// Protect to ProtNone, RemoveAll) invalidates it. A slot is valid
// exactly when its protection is not ProtNone (no mapping ever has
// ProtNone), so the zero slot is empty.
type tlbSlot struct {
	key   Key
	frame *mem.Frame
	prot  Prot
}

// MMU is the translation state of a single processor.
type MMU struct {
	proc  int
	pt    map[Key]*PTE        // key -> pte
	byFrm map[*mem.Frame]*PTE // frame -> its single pte on this processor
	stats Stats

	// free recycles PTE records: Remove pushes, Enter pops, so the
	// fault/protocol path stops allocating once the working set's PTEs
	// exist. Recycling is safe with respect to the TLB because every
	// removal path invalidates the slot caching the retired PTE before it
	// can be reused.
	free []*PTE

	// direct-mapped software "TLB" to make the hot translate path cheap
	tlb [tlbSize]tlbSlot
}

// New creates the MMU for processor proc.
func New(proc int) *MMU {
	return &MMU{
		proc:  proc,
		pt:    make(map[Key]*PTE),
		byFrm: make(map[*mem.Frame]*PTE),
	}
}

// Proc reports which processor this MMU belongs to.
func (m *MMU) Proc() int { return m.proc }

// Stats returns a copy of the MMU's event counters.
func (m *MMU) Stats() Stats { return m.stats }

// tlbDrop invalidates the slot caching key, if it still does.
func (m *MMU) tlbDrop(key Key) {
	s := &m.tlb[int(key)&(tlbSize-1)]
	if s.key == key {
		*s = tlbSlot{}
	}
}

// tlbFill caches a translation, displacing whatever shared its slot.
func (m *MMU) tlbFill(pte *PTE) {
	m.tlb[int(pte.Key)&(tlbSize-1)] = tlbSlot{key: pte.Key, frame: pte.Frame, prot: pte.Prot}
}

func (m *MMU) invalidateTLB() { m.tlb = [tlbSize]tlbSlot{} }

// Enter installs a translation from vpn to frame with the given protection,
// replacing any previous translation for vpn. If frame is already mapped at
// a different virtual address on this processor, that mapping is dropped
// first (the Rosetta single-VA restriction) and counted in Stats.AliasDrops.
//
//numalint:hotpath
func (m *MMU) Enter(key Key, frame *mem.Frame, prot Prot) {
	if frame == nil {
		panic("mmu: Enter with nil frame")
	}
	if prot == ProtNone {
		panic("mmu: Enter with no permissions")
	}
	if old, ok := m.byFrm[frame]; ok && old.Key != key {
		delete(m.pt, old.Key)
		delete(m.byFrm, frame)
		m.stats.AliasDrops++
		m.tlbDrop(old.Key)
		m.free = append(m.free, old) //numalint:coldpath bounded: capacity tracks the PTE working-set high water
	}
	if old, ok := m.pt[key]; ok {
		// Re-enter of a mapped key: update the record in place and
		// refill its slot.
		delete(m.byFrm, old.Frame)
		old.Frame = frame
		old.Prot = prot
		m.byFrm[frame] = old
		m.stats.Enters++
		m.tlbFill(old)
		return
	}
	var pte *PTE
	if k := len(m.free); k > 0 {
		pte = m.free[k-1]
		m.free = m.free[:k-1]
		*pte = PTE{Key: key, Frame: frame, Prot: prot}
	} else {
		//numalint:coldpath pool miss: first fault on a fresh key; the steady state pops the free list
		pte = &PTE{Key: key, Frame: frame, Prot: prot}
	}
	m.pt[key] = pte
	m.byFrm[frame] = pte
	m.stats.Enters++
	// Prefill: the faulting access retries immediately after Enter.
	m.tlbFill(pte)
}

// Remove drops the translation for vpn, if any.
//
//numalint:hotpath
func (m *MMU) Remove(key Key) {
	if pte, ok := m.pt[key]; ok {
		delete(m.pt, key)
		delete(m.byFrm, pte.Frame)
		m.stats.Removes++
		m.tlbDrop(key)
		m.free = append(m.free, pte) //numalint:coldpath bounded: capacity tracks the PTE working-set high water
	}
}

// RemoveFrame drops the translation (there is at most one) mapping frame on
// this processor. It reports whether a translation existed.
//
//numalint:hotpath
func (m *MMU) RemoveFrame(frame *mem.Frame) bool {
	pte, ok := m.byFrm[frame]
	if !ok {
		return false
	}
	delete(m.pt, pte.Key)
	delete(m.byFrm, frame)
	m.stats.Removes++
	m.tlbDrop(pte.Key)
	m.free = append(m.free, pte) //numalint:coldpath bounded: capacity tracks the PTE working-set high water
	return true
}

// Protect changes the protection of the translation for vpn, if present.
// Raising as well as lowering is permitted; the pmap layer uses lowering to
// provoke the faults that drive the NUMA protocol.
//
//numalint:hotpath
func (m *MMU) Protect(key Key, prot Prot) {
	if pte, ok := m.pt[key]; ok {
		if prot == ProtNone {
			m.Remove(key)
			return
		}
		pte.Prot = prot
		m.stats.Protects++
		// The TLB caches a copy of the protection: update a slot that
		// holds this key.
		if s := &m.tlb[int(key)&(tlbSize-1)]; s.key == key && s.prot != ProtNone {
			s.prot = prot
		}
	}
}

// ProtectFrame changes the protection of the translation mapping frame, if
// present.
//
//numalint:hotpath
func (m *MMU) ProtectFrame(frame *mem.Frame, prot Prot) {
	if pte, ok := m.byFrm[frame]; ok {
		m.Protect(pte.Key, prot)
	}
}

// Lookup returns the translation for vpn, or nil.
//
//numalint:hotpath
func (m *MMU) Lookup(key Key) *PTE {
	return m.pt[key]
}

// LookupFrame returns this processor's translation mapping frame, or nil.
//
//numalint:hotpath
func (m *MMU) LookupFrame(frame *mem.Frame) *PTE {
	return m.byFrm[frame]
}

// Probe is the TLB-hit test alone: it returns the cached frame when the
// TLB holds key with a protection that permits the access, and nil
// otherwise — a miss, or a cached protection too weak, which Translate
// then settles through the page table. Split from Translate, it is small
// enough to inline into the per-reference path.
//
//numalint:hotpath
func (m *MMU) Probe(key Key, write bool) *mem.Frame {
	need := ProtRead
	if write {
		need = ProtWrite
	}
	if s := &m.tlb[int(key)&(tlbSize-1)]; s.key == key && s.prot&need != 0 {
		return s.frame
	}
	return nil
}

// Translate resolves an access. It returns the frame to access if the
// translation exists with sufficient permission, or nil to signal a fault.
// A TLB miss is settled through the page table and refills the slot.
//
//numalint:hotpath
func (m *MMU) Translate(key Key, write bool) *mem.Frame {
	if f := m.Probe(key, write); f != nil {
		return f
	}
	pte, ok := m.pt[key]
	if !ok {
		return nil
	}
	m.tlbFill(pte)
	if write {
		if !pte.Prot.CanWrite() {
			return nil
		}
	} else if !pte.Prot.CanRead() {
		return nil
	}
	return pte.Frame
}

// Mappings reports the number of live translations.
func (m *MMU) Mappings() int { return len(m.pt) }

// RemoveAll drops every translation (used when destroying an address space).
// The maps keep their buckets; the retired PTEs are left to the collector
// rather than recycled — pooling them would require iterating a map, and
// this is a teardown path, not a hot one.
func (m *MMU) RemoveAll() {
	n := uint64(len(m.pt))
	clear(m.pt)
	clear(m.byFrm)
	m.stats.Removes += n
	m.invalidateTLB()
}
