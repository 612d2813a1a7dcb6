// Package vm executes MIR programs concretely. It plays the role Intel PIN
// plays in the paper: a deterministic interpreter that exposes instrumentation
// hooks for every instruction, memory access, call, return and syscall, plus
// crash reporting with backtraces.
//
// Crashes are not modeled with a special "vulnerability" opcode: they surface
// from ordinary memory-safety violations (out-of-bounds or use-after-free
// accesses, null dereferences, division by zero, writes to read-only
// mappings), from explicit traps, or from exceeding the instruction budget
// (the hang analog of CWE-835 infinite loops). The taint engine of P1
// observes through these hooks, and P4 replays the reformed PoC here for
// the final verdict.
//
// Concurrency: a VM instance (and any Hooks installed on it) is confined
// to one goroutine for its whole run; programs and inputs are read-only, so
// any number of VMs may execute the same Program concurrently. The only
// state VMs share is a sync.Pool of recycled call frames.
package vm

import (
	"fmt"

	"octopocs/internal/isa"
)

// Status classifies how a run ended.
type Status int

// Run statuses.
const (
	StatusExit    Status = iota + 1 // clean exit (SysExit or return from entry)
	StatusCrash                     // memory fault, trap, or bad indirect call
	StatusHang                      // instruction budget exhausted
	StatusStopped                   // cooperative stop signal observed mid-run
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusExit:
		return "exit"
	case StatusCrash:
		return "crash"
	case StatusHang:
		return "hang"
	case StatusStopped:
		return "stopped"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// CrashKind classifies a crash.
type CrashKind int

// Crash kinds.
const (
	CrashNull    CrashKind = iota + 1 // access below the null guard page
	CrashOOB                          // access outside any live region
	CrashUAF                          // access to a freed region
	CrashROWrite                      // write to a read-only file mapping
	CrashDiv                          // division or modulo by zero
	CrashTrap                         // explicit trap instruction
	CrashBadCall                      // indirect call through a bad table slot
	CrashHang                         // instruction budget exhausted (CWE-835 analog)
)

// String renders the crash kind.
func (k CrashKind) String() string {
	switch k {
	case CrashNull:
		return "null-deref"
	case CrashOOB:
		return "out-of-bounds"
	case CrashUAF:
		return "use-after-free"
	case CrashROWrite:
		return "readonly-write"
	case CrashDiv:
		return "div-by-zero"
	case CrashTrap:
		return "trap"
	case CrashBadCall:
		return "bad-indirect-call"
	case CrashHang:
		return "hang"
	default:
		return fmt.Sprintf("crash(%d)", int(k))
	}
}

// StackEntry is one backtrace frame: the function and the location of the
// call site in its caller (zero Loc for the entry function).
type StackEntry struct {
	Func     string
	CallSite isa.Loc
}

// Crash describes a crashing run: what faulted, where, and the full call
// stack at the time (the paper's "backtrace function" used to find ep).
type Crash struct {
	Kind CrashKind
	Loc  isa.Loc
	// Addr is the faulting address for memory crashes.
	Addr uint64
	// Code is the trap code for CrashTrap.
	Code int64
	// Backtrace lists the call stack outermost-first; the last entry is
	// the function that faulted.
	Backtrace []StackEntry
}

// String renders a one-line crash summary.
func (c *Crash) String() string {
	return fmt.Sprintf("%s at %s (addr=%#x)", c.Kind, c.Loc, c.Addr)
}

// Funcs returns the backtrace function names outermost-first.
func (c *Crash) Funcs() []string {
	names := make([]string, len(c.Backtrace))
	for i, e := range c.Backtrace {
		names[i] = e.Func
	}
	return names
}

// Outcome is the result of a run.
type Outcome struct {
	Status   Status
	ExitCode uint64
	// Crash is non-nil for StatusCrash and StatusHang (a hang reports
	// where the budget ran out, with CrashHang kind, so that the
	// infinite-loop vulnerability class still yields a backtrace).
	Crash *Crash
	// Steps is the number of instructions executed.
	Steps int64
	// Output is everything the program wrote via SysWrite.
	Output []byte
}

// Crashed reports whether the run ended abnormally (crash or hang).
func (o *Outcome) Crashed() bool {
	return o.Status == StatusCrash || o.Status == StatusHang
}

// CrashedIn reports whether the run crashed while executing one of the named
// functions (matching the innermost backtrace frame).
func (o *Outcome) CrashedIn(funcs map[string]bool) bool {
	if o.Crash == nil {
		return false
	}
	return funcs[o.Crash.Loc.Func]
}

// String renders a one-line outcome summary.
func (o *Outcome) String() string {
	switch o.Status {
	case StatusExit:
		return fmt.Sprintf("exit(%d) after %d steps", o.ExitCode, o.Steps)
	case StatusCrash:
		return fmt.Sprintf("crash: %s after %d steps", o.Crash, o.Steps)
	case StatusHang:
		return fmt.Sprintf("hang after %d steps", o.Steps)
	case StatusStopped:
		return fmt.Sprintf("stopped after %d steps", o.Steps)
	default:
		return "unknown outcome"
	}
}
