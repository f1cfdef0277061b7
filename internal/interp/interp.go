// Package interp executes IR programs against the CaRDS runtime. It
// plays the role of the CPU: each instruction charges the virtual clock,
// memory instructions go through the runtime's guard/deref machinery,
// and dsalloc-rewritten allocations carry their data structure handles
// into the allocator — so a compiled program's far-memory behaviour
// (guard counts, faults, network traffic, virtual time) is measured by
// simply running it.
//
// The interpreter enforces the safety property the guard passes are
// meant to establish: a direct load/store of a tagged (remotable)
// address that did not pass through a guard aborts execution with
// ErrUnsafeAccess. Compiler bugs surface as hard failures, not silent
// corruption.
//
// New pre-decodes every function once into a flat program (decode.go):
// operands are frame-slot indices, branch targets are pcs, callees and
// ROI markers are resolved. Executing an instruction then touches no
// ir.Value interface, no map and no allocator; what it charges to the
// virtual clock, and when, is exactly what walking the ir.Instr would.
package interp

import (
	"fmt"
	"math"

	"cards/internal/farmem"
	"cards/internal/ir"
	"cards/internal/netsim"
)

// Options tunes execution.
type Options struct {
	// MaxSteps bounds total executed instructions (0 = default 1e9).
	MaxSteps uint64
	// MaxDepth bounds the call stack (0 = default 10_000).
	MaxDepth int
}

// Stats reports what an execution did.
type Stats struct {
	Instructions uint64
	Calls        uint64
	MaxDepthSeen int
	// ROICycles is the virtual time spent inside region-of-interest
	// markers (zero when the program declares none).
	ROICycles uint64
}

// Region-of-interest marker functions: a program may declare empty
// functions with these names and call them around its measured kernel
// (the way the GAP benchmarks time BFS trials but not graph building).
// The interpreter intercepts the calls and accumulates the enclosed
// virtual time into Stats.ROICycles.
const (
	ROIBegin = "cards.roi_begin"
	ROIEnd   = "cards.roi_end"
)

// Machine executes one program against one runtime.
type Machine struct {
	rt    *farmem.Runtime
	clock *netsim.Clock
	model *netsim.CostModel
	opts  Options
	main  *function // nil when the module has none

	// stack holds every live activation's frame back to back; a call
	// places the callee's frame directly above the caller's.
	stack []uint64

	stats    Stats
	depth    int
	roiStart uint64
	inROI    bool
}

// New creates a machine. The module must verify. The program is decoded
// here, once: changes made to the module afterwards are not seen by Run.
func New(mod *ir.Module, rt *farmem.Runtime, opts Options) (*Machine, error) {
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("interp: module does not verify: %w", err)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1_000_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 10_000
	}
	main, err := decode(mod)
	if err != nil {
		return nil, err
	}
	return &Machine{rt: rt, clock: rt.Clock(), model: rt.Model(), opts: opts, main: main}, nil
}

// Stats returns execution statistics.
func (m *Machine) Stats() Stats { return m.stats }

// Run executes main() to completion and returns its result bits (0 for a
// void main). Workload programs return checksums here so correctness can
// be asserted across policies and baselines.
func (m *Machine) Run() (uint64, error) {
	if m.main == nil {
		return 0, fmt.Errorf("interp: module has no main")
	}
	if n := len(m.main.params); n != 0 {
		return 0, fmt.Errorf("interp: main must take no parameters (has %d)", n)
	}
	return m.call(m.main, 0, nil, 0)
}

// call activates f with its frame at stack[bp:], taking the arguments
// from the caller's slots args (relative to the caller's frame at from),
// and returns its result bits.
func (m *Machine) call(f *function, bp int, args []int32, from int) (uint64, error) {
	m.depth++
	if m.depth > m.opts.MaxDepth {
		m.depth--
		return 0, fmt.Errorf("interp: call depth exceeded in @%s", f.name)
	}
	if m.depth > m.stats.MaxDepthSeen {
		m.stats.MaxDepthSeen = m.depth
	}
	m.stats.Calls++

	if top := bp + f.frame; top > len(m.stack) {
		grown := make([]uint64, 2*top)
		copy(grown, m.stack[:bp])
		m.stack = grown
	}
	fr := m.stack[bp : bp+f.frame]
	clear(fr[:f.poolAt])
	copy(fr[f.poolAt:], f.pool)
	for i, a := range args {
		fr[f.params[i]] = m.stack[from+int(a)]
	}
	ret, err := m.exec(f, bp)
	m.depth--
	return ret, err
}

// exec runs f's code over the frame at stack[bp:].
func (m *Machine) exec(f *function, bp int) (uint64, error) {
	fr, code := m.stack[bp:bp+f.frame], f.code
	pc := 0
	for {
		in := &code[pc]
		pc++
		m.stats.Instructions++
		if m.stats.Instructions > m.opts.MaxSteps {
			return 0, fmt.Errorf("interp: step limit (%d) exceeded", m.opts.MaxSteps)
		}
		m.clock.Advance(m.model.Instr)

		switch in.op {
		case opMove:
			fr[in.dst] = fr[in.a]

		case opBin:
			v, err := evalBin(in.kind, fr[in.a], fr[in.b])
			if err != nil {
				return 0, fmt.Errorf("interp: @%s %s: %w", f.name, in.src, err)
			}
			fr[in.dst] = v

		case opAlloc, opDSAlloc:
			count := int64(fr[in.a])
			if count < 0 {
				return 0, fmt.Errorf("interp: @%s: negative alloc count %d", f.name, count)
			}
			var addr uint64
			var err error
			if in.op == opDSAlloc {
				addr, err = m.rt.DSAlloc(int(int64(fr[in.b])), count*in.x)
			} else {
				addr, err = m.rt.AllocLocal(count * in.x)
			}
			if err != nil {
				return 0, fmt.Errorf("interp: @%s alloc: %w", f.name, err)
			}
			fr[in.dst] = addr

		case opLoad:
			v, err := m.rt.ReadWord(fr[in.a])
			if err != nil {
				return 0, fmt.Errorf("interp: @%s %s: %w", f.name, in.src, err)
			}
			fr[in.dst] = v

		case opStore:
			if err := m.rt.WriteWord(fr[in.a], fr[in.b]); err != nil {
				return 0, fmt.Errorf("interp: @%s %s: %w", f.name, in.src, err)
			}

		case opGEP:
			fr[in.dst] = fr[in.a] + fr[in.b]*uint64(in.x) + uint64(in.y)

		case opGuardR, opGuardW:
			p, err := m.rt.GuardSpan(fr[in.a], in.op == opGuardW, int(in.x), int(in.y))
			if err != nil {
				return 0, fmt.Errorf("interp: @%s %s: %w", f.name, in.src, err)
			}
			fr[in.dst] = p

		case opAllLocal:
			fr[in.dst] = 0
			if m.rt.AllLocal(in.src.DSRefs) {
				fr[in.dst] = 1
			}

		case opPrefetch:
			m.rt.Prefetch(fr[in.a])

		case opCall:
			ret, err := m.call(in.callee, bp+f.frame, in.args, bp)
			if err != nil {
				return 0, err
			}
			// The callee may have grown (moved) the stack.
			fr = m.stack[bp : bp+f.frame]
			fr[in.dst] = ret

		case opROIBegin:
			m.roiStart = m.clock.Now()
			m.inROI = true

		case opROIEnd:
			if m.inROI {
				m.stats.ROICycles += m.clock.Now() - m.roiStart
				m.inROI = false
			}

		case opRet:
			return fr[in.a], nil

		case opBr:
			if fr[in.a] != 0 {
				pc = int(in.x)
			} else {
				pc = int(in.y)
			}

		case opJmp:
			pc = int(in.x)

		default:
			return 0, fmt.Errorf("interp: @%s: unexecutable op %s", f.name, in.src.Op)
		}
	}
}

// evalBin evaluates a binary operator on raw register bits.
func evalBin(kind ir.BinKind, x, y uint64) (uint64, error) {
	b := func(cond bool) uint64 {
		if cond {
			return 1
		}
		return 0
	}
	xi, yi := int64(x), int64(y)
	switch kind {
	case ir.Add:
		return uint64(xi + yi), nil
	case ir.Sub:
		return uint64(xi - yi), nil
	case ir.Mul:
		return uint64(xi * yi), nil
	case ir.Div:
		if yi == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return uint64(xi / yi), nil
	case ir.Rem:
		if yi == 0 {
			return 0, fmt.Errorf("integer remainder by zero")
		}
		return uint64(xi % yi), nil
	case ir.And:
		return x & y, nil
	case ir.Or:
		return x | y, nil
	case ir.Xor:
		return x ^ y, nil
	case ir.Shl:
		return x << (y & 63), nil
	case ir.Shr:
		return x >> (y & 63), nil
	case ir.EQ:
		return b(xi == yi), nil
	case ir.NE:
		return b(xi != yi), nil
	case ir.LT:
		return b(xi < yi), nil
	case ir.LE:
		return b(xi <= yi), nil
	case ir.GT:
		return b(xi > yi), nil
	case ir.GE:
		return b(xi >= yi), nil
	case ir.FAdd:
		return math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y)), nil
	case ir.FSub:
		return math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y)), nil
	case ir.FMul:
		return math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y)), nil
	case ir.FDiv:
		return math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y)), nil
	case ir.FLT:
		return b(math.Float64frombits(x) < math.Float64frombits(y)), nil
	case ir.IToF:
		return math.Float64bits(float64(int64(x))), nil
	}
	return 0, fmt.Errorf("unknown binary op %v", kind)
}
