package symex

import (
	"testing"

	"octopocs/internal/expr"
)

func TestSymMemLoadStore(t *testing.T) {
	m := newMem()
	base := m.alloc(16)
	if base == 0 {
		t.Fatal("alloc returned null")
	}

	// Concrete round trip through byte decomposition.
	if f := m.store(base, 4, expr.Const(0xAABBCCDD)); f != nil {
		t.Fatalf("store: %v", f)
	}
	v, f := m.load(base, 4)
	if f != nil {
		t.Fatalf("load: %v", f)
	}
	if got := v.EvalConcrete(nil); got != 0xAABBCCDD {
		t.Errorf("load value = %#x, want 0xAABBCCDD", got)
	}

	// Unwritten bytes read as zero.
	v, f = m.load(base+8, 8)
	if f != nil {
		t.Fatalf("load: %v", f)
	}
	if got := v.EvalConcrete(nil); got != 0 {
		t.Errorf("uninitialized load = %#x, want 0", got)
	}

	// Symbolic byte round trip.
	if f := m.store(base, 1, expr.Sym(3)); f != nil {
		t.Fatalf("store sym: %v", f)
	}
	v, _ = m.load(base, 1)
	if got := v.EvalConcrete([]byte{0, 0, 0, 0x5A}); got != 0x5A {
		t.Errorf("symbolic byte load = %#x, want 0x5A", got)
	}
}

func TestSymMemFaults(t *testing.T) {
	m := newMem()
	base := m.alloc(8)

	if _, f := m.load(0x10, 1); f == nil || f.kind != "null-deref" {
		t.Errorf("null load fault = %v", f)
	}
	if _, f := m.load(base+8, 1); f == nil || f.kind != "out-of-bounds" {
		t.Errorf("oob load fault = %v", f)
	}
	if _, f := m.load(base+4, 8); f == nil || f.kind != "out-of-bounds" {
		t.Errorf("straddling load fault = %v", f)
	}
	if f := m.free(base); f != nil {
		t.Fatalf("free: %v", f)
	}
	if _, f := m.load(base, 1); f == nil || f.kind != "use-after-free" {
		t.Errorf("UAF load fault = %v", f)
	}
	if f := m.free(base); f == nil || f.kind != "use-after-free" {
		t.Errorf("double free fault = %v", f)
	}
	if f := m.free(0x999999); f == nil || f.kind != "out-of-bounds" {
		t.Errorf("bad free fault = %v", f)
	}

	ro := m.mapSymbolicFile(4)
	if f := m.store(ro, 1, expr.Zero); f == nil || f.kind != "readonly-write" {
		t.Errorf("readonly write fault = %v", f)
	}
	v, f := m.load(ro+2, 1)
	if f != nil {
		t.Fatalf("mapped load: %v", f)
	}
	if v.Op != expr.OpSym || v.Sym != 2 {
		t.Errorf("mapped byte = %v, want in[2]", v)
	}
}

// TestSymMemReservedCap mirrors vm's TestMemoryReservedCap: freed regions
// count, a clone inherits the reservation, and past the cap both alloc and
// mapSymbolicFile return 0 without adding a region.
func TestSymMemReservedCap(t *testing.T) {
	m := newMem()
	if f := m.free(m.alloc(16)); f != nil {
		t.Fatalf("free: %v", f)
	}
	m.reserved = maxReserved - 8
	c := m.clone()
	if c.alloc(8) == 0 {
		t.Fatal("allocation within the cap refused")
	}
	if got := c.alloc(0); got != 0 {
		t.Fatalf("allocation past the cap = %#x, want 0", got)
	}
	if got := c.mapSymbolicFile(1); got != 0 || len(c.regions) != 2 {
		t.Fatalf("map past the cap = %#x with %d regions, want 0 with 2", got, len(c.regions))
	}
	if m.alloc(8) == 0 || m.alloc(1) != 0 {
		t.Fatal("clone's allocations leaked into the original's reservation")
	}
}

func TestIsByteSized(t *testing.T) {
	tests := []struct {
		e    *expr.Expr
		want bool
	}{
		{expr.Const(0xFF), true},
		{expr.Const(0x100), false},
		{expr.Sym(0), true},
		{expr.Bin(expr.OpEq, expr.Sym(0), expr.Sym(1)), true},
		{expr.Bin(expr.OpAdd, expr.Sym(0), expr.Sym(1)), false},
	}
	for _, tt := range tests {
		if got := isByteSized(tt.e); got != tt.want {
			t.Errorf("isByteSized(%v) = %v, want %v", tt.e, got, tt.want)
		}
	}
}

func TestStateCloneIndependence(t *testing.T) {
	st := newState()
	st.frames = append(st.frames, &Frame{visits: map[int]int{0: 1}})
	base := st.mem.alloc(8)
	st.mem.store(base, 1, expr.Const(7))
	st.AddConstraint(expr.Bin(expr.OpEq, expr.Sym(0), expr.Const(1)))
	st.filePos = append(st.filePos, 5)

	cl := st.clone()
	cl.top().visits[0] = 99
	cl.top().regs[3] = expr.Const(42)
	cl.mem.store(base, 1, expr.Const(9))
	cl.AddConstraint(expr.Bin(expr.OpEq, expr.Sym(1), expr.Const(2)))
	cl.filePos[0] = 77

	if st.top().visits[0] != 1 {
		t.Error("clone shared the visits map")
	}
	if st.top().regs[3] != nil {
		t.Error("clone shared the register file")
	}
	if v, _ := st.mem.load(base, 1); v.EvalConcrete(nil) != 7 {
		t.Error("clone shared memory")
	}
	if len(st.constraints) != 1 {
		t.Error("clone shared the constraint slice")
	}
	if st.filePos[0] != 5 {
		t.Error("clone shared the file positions")
	}
}

func TestStateFootprintGrows(t *testing.T) {
	st := newState()
	st.frames = append(st.frames, &Frame{visits: map[int]int{}})
	base := st.footprint()
	if base <= 0 {
		t.Fatalf("footprint = %d, want positive", base)
	}
	st.mem.alloc(64)
	st.mem.store(heapBase, 8, expr.Const(1))
	st.AddConstraint(expr.Bin(expr.OpEq, expr.Sym(0), expr.Const(1)))
	if grown := st.footprint(); grown <= base {
		t.Errorf("footprint did not grow: %d -> %d", base, grown)
	}
}

func TestStateKindStrings(t *testing.T) {
	for k := KindActive; k <= KindInfeasible; k++ {
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Errorf("kind %d renders as %q", k, s)
		}
	}
}

func TestFilePosDefaults(t *testing.T) {
	st := newState()
	if st.FilePos() != 0 {
		t.Error("no-fd FilePos should be 0")
	}
	st.filePos = append(st.filePos, 9)
	st.lastReadFD = 0
	if st.FilePos() != 9 {
		t.Error("FilePos should track the last-read descriptor")
	}
}
