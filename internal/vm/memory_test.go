package vm

import (
	"testing"

	"octopocs/internal/isa"
)

func TestMemoryAccessors(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(16)
	b := m.Map([]byte{1, 2, 3})

	regions := m.Regions()
	if len(regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(regions))
	}
	if regions[0].Base != a || regions[1].Base != b {
		t.Error("region bases wrong")
	}
	if !regions[1].ReadOnly {
		t.Error("mapping must be read-only")
	}
	if regions[0].End() != a+16 {
		t.Errorf("End() = %#x, want %#x", regions[0].End(), a+16)
	}
}

// TestMemoryReservedCap holds an address space at its total cap: freed
// regions still count, a refused Map adds no region, and a reset frees the
// whole budget again.
func TestMemoryReservedCap(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(16)
	if fault := m.Free(a); fault != nil {
		t.Fatalf("Free: %v", fault)
	}
	m.reserved = maxReserved - 8 // stand in for 256 MB of earlier allocations
	if m.Alloc(8) == 0 {
		t.Fatal("allocation within the cap refused")
	}
	if got := m.Alloc(0); got != 0 {
		t.Fatalf("allocation past the cap = %#x, want 0", got)
	}
	if got := m.Map([]byte{1}); got != 0 || len(m.Regions()) != 2 {
		t.Fatalf("map past the cap = %#x with %d regions, want 0 with 2", got, len(m.Regions()))
	}
	m.reset()
	if m.Alloc(maxAlloc) == 0 {
		t.Fatal("reset did not release the reservation budget")
	}
}

func TestMemoryReadWriteBytes(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(8)

	if fault := m.WriteBytes(a, []byte{9, 8, 7}); fault != nil {
		t.Fatalf("WriteBytes: %v", fault)
	}
	out, fault := m.ReadBytes(a, 3)
	if fault != nil {
		t.Fatalf("ReadBytes: %v", fault)
	}
	if out[0] != 9 || out[2] != 7 {
		t.Errorf("ReadBytes = %v", out)
	}
	// The returned slice is a copy: mutating it must not touch memory.
	out[0] = 0xEE
	again, _ := m.ReadBytes(a, 1)
	if again[0] != 9 {
		t.Error("ReadBytes returned a live view")
	}

	if fault := m.WriteBytes(a+6, []byte{1, 2, 3}); fault == nil || fault.kind != CrashOOB {
		t.Errorf("straddling WriteBytes fault = %v", fault)
	}
	if _, fault := m.ReadBytes(a+6, 3); fault == nil || fault.kind != CrashOOB {
		t.Errorf("straddling ReadBytes fault = %v", fault)
	}
	if fault := m.WriteBytes(0x10, []byte{1}); fault == nil || fault.kind != CrashNull {
		t.Errorf("null WriteBytes fault = %v", fault)
	}
}

func TestMemoryLoadStoreWidths(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(8)
	if fault := m.Store(a, 8, 0x1122334455667788); fault != nil {
		t.Fatal(fault)
	}
	for _, tt := range []struct {
		size uint8
		want uint64
	}{{1, 0x88}, {2, 0x7788}, {4, 0x55667788}, {8, 0x1122334455667788}} {
		v, fault := m.Load(a, tt.size)
		if fault != nil {
			t.Fatal(fault)
		}
		if v != tt.want {
			t.Errorf("Load size %d = %#x, want %#x", tt.size, v, tt.want)
		}
	}
}

func TestHangCarriesBacktrace(t *testing.T) {
	// Hangs must report where the budget ran out so ep discovery works
	// for the CWE-835 class.
	prog := retLoopProgram(t)
	out := New(prog, Config{MaxSteps: 500}).Run()
	if out.Status != StatusHang {
		t.Fatalf("status = %v, want hang", out.Status)
	}
	if out.Crash == nil || out.Crash.Kind != CrashHang {
		t.Fatalf("hang crash = %v, want CrashHang", out.Crash)
	}
	if len(out.Crash.Backtrace) == 0 || out.Crash.Backtrace[0].Func != "main" {
		t.Errorf("hang backtrace = %v", out.Crash.Funcs())
	}
	if !out.Crashed() {
		t.Error("hang must count as crashed for ℓ verification")
	}
}

// retLoopProgram builds main{ spin: jmp spin }.
func retLoopProgram(t *testing.T) *isa.Program {
	t.Helper()
	p := &isa.Program{
		Name:  "spin",
		Entry: "main",
		Funcs: []*isa.Function{{
			Name: "main",
			Blocks: []*isa.Block{{
				Name:  "spin",
				Insts: []isa.Inst{{Op: isa.OpJmp, Then: "spin"}},
			}},
		}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}
