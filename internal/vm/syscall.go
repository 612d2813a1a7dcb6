package vm

import (
	"fmt"

	"octopocs/internal/isa"
)

// doSyscall executes a syscall instruction. It returns a terminal outcome
// (for SysExit or a faulting access) or nil, plus whether to advance past
// the instruction.
func (m *Machine) doSyscall(fr *frame, in *isa.Inst) (*Outcome, bool) {
	arg := func(i int) uint64 { return fr.regs[in.Args[i]] }

	switch in.Sys {
	case isa.SysOpen:
		m.files = append(m.files, file{})
		fr.regs[in.Dst] = uint64(len(m.files) + 2) // fds start at 3

	case isa.SysRead:
		fd, buf, n := arg(0), arg(1), arg(2)
		f := m.fileFor(fd)
		if f == nil {
			fr.regs[in.Dst] = badFD
			break
		}
		remain := int64(len(m.input)) - f.pos
		if remain < 0 {
			remain = 0
		}
		count := int64(n)
		if count > remain {
			count = remain
		}
		if count > 0 {
			data := m.input[f.pos : f.pos+count]
			if fault := m.mem.WriteBytes(buf, data); fault != nil {
				return m.crashFault(fault), false
			}
			if m.hooks.OnRead != nil {
				m.hooks.OnRead(fd, f.pos, buf, int(count))
			}
			f.pos += count
		}
		fr.regs[in.Dst] = uint64(count)

	case isa.SysSeek:
		fd, off := arg(0), arg(1)
		f := m.fileFor(fd)
		if f == nil {
			fr.regs[in.Dst] = badFD
			break
		}
		pos := int64(off)
		if pos < 0 {
			pos = 0
		}
		if pos > int64(len(m.input)) {
			pos = int64(len(m.input))
		}
		f.pos = pos
		fr.regs[in.Dst] = uint64(pos)

	case isa.SysTell:
		f := m.fileFor(arg(0))
		if f == nil {
			fr.regs[in.Dst] = badFD
			break
		}
		fr.regs[in.Dst] = uint64(f.pos)

	case isa.SysSize:
		if m.fileFor(arg(0)) == nil {
			fr.regs[in.Dst] = badFD
			break
		}
		fr.regs[in.Dst] = uint64(len(m.input))

	case isa.SysMMap:
		fd := arg(0)
		if m.fileFor(fd) == nil {
			fr.regs[in.Dst] = 0
			break
		}
		base := m.mem.Map(m.input)
		fr.regs[in.Dst] = base
		if m.hooks.OnMMap != nil {
			m.hooks.OnMMap(fd, base, len(m.input))
		}

	case isa.SysAlloc:
		fr.regs[in.Dst] = m.mem.Alloc(arg(0))

	case isa.SysFree:
		if fault := m.mem.Free(arg(0)); fault != nil {
			return m.crashFault(fault), false
		}
		fr.regs[in.Dst] = 0

	case isa.SysWrite:
		buf, n := arg(0), arg(1)
		if n > 0 {
			data, fault := m.mem.ReadBytes(buf, n)
			if fault != nil {
				return m.crashFault(fault), false
			}
			m.output = append(m.output, data...)
		}
		fr.regs[in.Dst] = n

	case isa.SysExit:
		return m.exit(arg(0)), false

	case isa.SysArgRead:
		buf, n := arg(0), arg(1)
		remain := int64(len(m.input)) - m.argPos
		if remain < 0 {
			remain = 0
		}
		count := int64(n)
		if count > remain {
			count = remain
		}
		if count > 0 {
			data := m.input[m.argPos : m.argPos+count]
			if fault := m.mem.WriteBytes(buf, data); fault != nil {
				return m.crashFault(fault), false
			}
			if m.hooks.OnRead != nil {
				m.hooks.OnRead(ArgFD, m.argPos, buf, int(count))
			}
			m.argPos += count
		}
		fr.regs[in.Dst] = uint64(count)

	case isa.SysArgLen:
		fr.regs[in.Dst] = uint64(len(m.input))

	default:
		panic(fmt.Sprintf("vm: unknown syscall %d", in.Sys))
	}
	return nil, true
}

// badFD is the all-ones error value returned for operations on descriptors
// that were never opened, mirroring a -1 return in C.
const badFD = ^uint64(0)

// ArgFD is the pseudo-descriptor OnRead reports for argument-string reads
// (SysArgRead). The argument channel shares the input byte offsets with
// the file channel; a program is expected to consume one channel only.
const ArgFD = uint64(1) << 32
