package vm

import (
	"encoding/binary"
	"sort"
)

// Memory layout constants.
const (
	// nullGuard is the size of the unmapped page at address zero; any
	// access below it is a null dereference.
	nullGuard = 0x1000
	// heapBase is where the first allocation lands.
	heapBase = 0x10000
	// regionGap is the unmapped guard gap between consecutive regions, so
	// that a linear overflow off one buffer cannot silently land in the
	// next.
	regionGap = 64
	// maxAlloc caps a single allocation; larger requests fail (return 0),
	// which is how C allocators refuse absurd sizes produced by integer
	// overflows.
	maxAlloc = 1 << 26
	// maxReserved caps the bytes one run reserves in total; later
	// requests fail (return 0) like an oversized one, so a guest
	// allocation loop cannot exhaust the host process.
	maxReserved = 4 * maxAlloc
	// maxReuse caps the buffer a reset keeps for the next run, so one
	// huge allocation does not stay resident for a whole campaign.
	maxReuse = 1 << 20
)

// Region is a contiguous allocation.
type Region struct {
	Base     uint64
	Data     []byte
	Freed    bool
	ReadOnly bool // file mapping
}

// End returns one past the last valid address.
func (r *Region) End() uint64 { return r.Base + uint64(len(r.Data)) }

// Memory is a region-based address space with guard gaps. The zero value is
// not usable; call NewMemory.
type Memory struct {
	// regions lists the live regions in allocation order. After a reset,
	// the slots between len and cap still hold the previous run's
	// regions, and the k-th allocation reuses slot k when it fits.
	regions []*Region
	next    uint64
	// reserved counts the bytes allocated since the last reset; freed
	// regions stay held for use-after-free detection, so they count too.
	reserved uint64
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{next: heapBase}
}

// memFault describes a failed access. It is converted into a Crash by the
// interpreter, which knows the faulting location.
type memFault struct {
	kind CrashKind
	addr uint64
}

// Alloc reserves n bytes and returns the base address, or 0 if the request
// exceeds maxAlloc or would take the address space past maxReserved.
// Zero-length allocations get a one-byte region so the returned base is
// still a valid unique address.
func (m *Memory) Alloc(n uint64) uint64 {
	if n > maxAlloc {
		return 0
	}
	if n == 0 {
		n = 1
	}
	if m.reserved+n > maxReserved {
		return 0
	}
	m.reserved += n
	i := len(m.regions)
	if i < cap(m.regions) {
		m.regions = m.regions[:i+1]
	} else {
		m.regions = append(m.regions, nil)
	}
	r := m.regions[i]
	if r == nil || uint64(cap(r.Data)) < n {
		r = &Region{Data: make([]byte, n)}
		m.regions[i] = r
	} else {
		r.Data = r.Data[:n]
		clear(r.Data)
		r.Freed, r.ReadOnly = false, false
	}
	r.Base = m.next
	m.next += (n + regionGap + 15) &^ 15
	return r.Base
}

// reset empties the address space, keeping the regions' buffers (up to
// maxReuse bytes each) for the next run's allocations.
func (m *Memory) reset() {
	for i, r := range m.regions {
		if cap(r.Data) > maxReuse {
			m.regions[i] = nil
		}
	}
	m.regions = m.regions[:0]
	m.next = heapBase
	m.reserved = 0
}

// Map reserves a read-only region initialized with data and returns its
// base, or 0 when Alloc refuses the size.
func (m *Memory) Map(data []byte) uint64 {
	base := m.Alloc(uint64(len(data)))
	if base == 0 {
		return 0
	}
	r := m.regions[len(m.regions)-1]
	copy(r.Data, data)
	r.ReadOnly = true
	return base
}

// Free releases the region starting exactly at base. Freeing an unknown or
// already-freed base returns a fault, mirroring glibc aborting on invalid
// free.
func (m *Memory) Free(base uint64) *memFault {
	r := m.find(base)
	if r == nil || r.Base != base {
		return &memFault{kind: CrashOOB, addr: base}
	}
	if r.Freed {
		return &memFault{kind: CrashUAF, addr: base}
	}
	r.Freed = true
	return nil
}

// find returns the region containing addr, or nil. Regions are allocated at
// monotonically increasing bases, so the slice is sorted.
func (m *Memory) find(addr uint64) *Region {
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].Base > addr
	})
	if i == 0 {
		return nil
	}
	r := m.regions[i-1]
	if addr >= r.End() {
		return nil
	}
	return r
}

// check validates an access of size bytes at addr and returns the backing
// slice on success.
func (m *Memory) check(addr uint64, size uint64, write bool) ([]byte, *memFault) {
	if addr < nullGuard {
		return nil, &memFault{kind: CrashNull, addr: addr}
	}
	r := m.find(addr)
	if r == nil {
		return nil, &memFault{kind: CrashOOB, addr: addr}
	}
	if r.Freed {
		return nil, &memFault{kind: CrashUAF, addr: addr}
	}
	if addr+size > r.End() || addr+size < addr {
		return nil, &memFault{kind: CrashOOB, addr: addr}
	}
	if write && r.ReadOnly {
		return nil, &memFault{kind: CrashROWrite, addr: addr}
	}
	off := addr - r.Base
	return r.Data[off : off+size], nil
}

// Load reads a little-endian value of size 1, 2, 4 or 8 bytes.
func (m *Memory) Load(addr uint64, size uint8) (uint64, *memFault) {
	buf, fault := m.check(addr, uint64(size), false)
	if fault != nil {
		return 0, fault
	}
	switch size {
	case 1:
		return uint64(buf[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(buf)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf)), nil
	default:
		return binary.LittleEndian.Uint64(buf), nil
	}
}

// Store writes a little-endian value of size 1, 2, 4 or 8 bytes.
func (m *Memory) Store(addr uint64, size uint8, val uint64) *memFault {
	buf, fault := m.check(addr, uint64(size), true)
	if fault != nil {
		return fault
	}
	switch size {
	case 1:
		buf[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(buf, uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(buf, uint32(val))
	default:
		binary.LittleEndian.PutUint64(buf, val)
	}
	return nil
}

// WriteBytes copies data into memory at addr, validating the whole range.
func (m *Memory) WriteBytes(addr uint64, data []byte) *memFault {
	buf, fault := m.check(addr, uint64(len(data)), true)
	if fault != nil {
		return fault
	}
	copy(buf, data)
	return nil
}

// ReadBytes copies n bytes out of memory starting at addr.
func (m *Memory) ReadBytes(addr uint64, n uint64) ([]byte, *memFault) {
	buf, fault := m.check(addr, n, false)
	if fault != nil {
		return nil, fault
	}
	out := make([]byte, n)
	copy(out, buf)
	return out, nil
}

// Regions returns the current region list (live view, for inspection; a
// machine's Reset reuses the regions).
func (m *Memory) Regions() []*Region { return m.regions }
