// Package interp executes IR programs against the CaRDS runtime. It
// plays the role of the CPU: every instruction charges the virtual clock,
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
// ROI markers are resolved, every binary operator is its own opcode, and
// a GEP → guard → load/store triple is one instruction (a store-once one
// when the guard's result feeds nothing but the store: farmem may then
// hand out the frame before a miss's bytes arrive). Executing touches
// no ir.Value interface, no map and no allocator. Instructions are paid
// for where they can be seen (exec): everything that can observe the
// instruction count or the virtual clock sees exactly what walking the
// ir.Instr one at a time, charging each, would have shown it.
package interp

import (
	"errors"
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
	m := &Machine{rt: rt, clock: rt.Clock(), model: rt.Model(), opts: opts}
	main, err := decode(mod, &m.stack)
	if err != nil {
		return nil, err
	}
	m.main = main
	return m, nil
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
	defer m.rt.SettleHits()
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
	outer := f.bp
	f.bp = bp
	ret, err := m.exec(f, bp)
	f.bp = outer
	m.depth--
	return ret, err
}

var (
	errDivZero = errors.New("integer division by zero")
	errRemZero = errors.New("integer remainder by zero")
)

// settle charges n executed instructions to Stats.Instructions and, at
// Model.Instr each, to the clock, and returns how many more may run
// before the step limit: none once it has tripped, even on a later Run.
func (m *Machine) settle(n uint64) uint64 {
	m.stats.Instructions += n
	m.clock.Advance(n * m.model.Instr)
	return m.opts.MaxSteps - min(m.stats.Instructions, m.opts.MaxSteps)
}

// trap settles n instructions, the trapping one included, and names it
// in err.
func (m *Machine) trap(n uint64, f *function, in *inst, err error) error {
	m.settle(n)
	return fmt.Errorf("interp: @%s %s: %w", f.name, in.src, err)
}

func b2u(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }

// exec runs f's code over the frame at stack[bp:].
//
// Instructions are charged where they can be seen, not one by one: n
// counts those run since the last settle, and budget is what the step
// limit still allows. Everything that can observe Stats.Instructions or
// the clock settles first: every runtime call that charges or reads the
// clock (GuardSite, DSAlloc/AllocLocal, AllLocal, Prefetch), a call (the
// callee starts settled; the caller re-reads its budget after the
// return), both ROI markers, a return and every trap. ReadWord and
// WriteWord observe neither, so loads and stores run unsettled. Any
// opcode that calls into farmem settles before the call. A guard that
// its site memo serves (f.memos) leaves its effects to
// Runtime.SettleHits, which the guard slow path, DSAlloc, AllocLocal,
// AllLocal and Prefetch run first; the ROI markers, which read the clock
// here, and Run run it themselves.
func (m *Machine) exec(f *function, bp int) (uint64, error) {
	fr, code := m.stack[bp:bp+f.frame], f.code
	pc, n, budget := 0, uint64(0), m.settle(0)
	for {
		in := &code[pc]
		pc++
		n++
		if n > budget {
			// The instruction is counted, then refused before it is charged.
			m.settle(n - 1)
			m.stats.Instructions++
			return 0, fmt.Errorf("interp: step limit (%d) exceeded", m.opts.MaxSteps)
		}

		switch in.op {
		case opMove:
			fr[in.dst] = fr[in.a]

		case opAdd:
			fr[in.dst] = fr[in.a] + fr[in.b]
		case opSub:
			fr[in.dst] = fr[in.a] - fr[in.b]
		case opMul:
			fr[in.dst] = fr[in.a] * fr[in.b]
		case opDiv:
			y := int64(fr[in.b])
			if y == 0 {
				return 0, m.trap(n, f, in, errDivZero)
			}
			fr[in.dst] = uint64(int64(fr[in.a]) / y)
		case opRem:
			y := int64(fr[in.b])
			if y == 0 {
				return 0, m.trap(n, f, in, errRemZero)
			}
			fr[in.dst] = uint64(int64(fr[in.a]) % y)
		case opAnd:
			fr[in.dst] = fr[in.a] & fr[in.b]
		case opOr:
			fr[in.dst] = fr[in.a] | fr[in.b]
		case opXor:
			fr[in.dst] = fr[in.a] ^ fr[in.b]
		case opShl:
			fr[in.dst] = fr[in.a] << (fr[in.b] & 63)
		case opShr:
			fr[in.dst] = fr[in.a] >> (fr[in.b] & 63)
		case opEQ:
			fr[in.dst] = b2u(fr[in.a] == fr[in.b])
		case opNE:
			fr[in.dst] = b2u(fr[in.a] != fr[in.b])
		case opLT:
			fr[in.dst] = b2u(int64(fr[in.a]) < int64(fr[in.b]))
		case opLE:
			fr[in.dst] = b2u(int64(fr[in.a]) <= int64(fr[in.b]))
		case opGT:
			fr[in.dst] = b2u(int64(fr[in.a]) > int64(fr[in.b]))
		case opGE:
			fr[in.dst] = b2u(int64(fr[in.a]) >= int64(fr[in.b]))
		case opFAdd:
			fr[in.dst] = math.Float64bits(f64(fr[in.a]) + f64(fr[in.b]))
		case opFSub:
			fr[in.dst] = math.Float64bits(f64(fr[in.a]) - f64(fr[in.b]))
		case opFMul:
			fr[in.dst] = math.Float64bits(f64(fr[in.a]) * f64(fr[in.b]))
		case opFDiv:
			fr[in.dst] = math.Float64bits(f64(fr[in.a]) / f64(fr[in.b]))
		case opFLT:
			fr[in.dst] = b2u(f64(fr[in.a]) < f64(fr[in.b]))
		case opIToF:
			fr[in.dst] = math.Float64bits(float64(int64(fr[in.a])))

		case opAlloc, opDSAlloc:
			budget, n = m.settle(n), 0
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
				return 0, m.trap(n, f, in, err)
			}
			fr[in.dst] = v

		case opStore:
			if err := m.rt.WriteWord(fr[in.a], fr[in.b]); err != nil {
				return 0, m.trap(n, f, in, err)
			}

		case opGEP:
			fr[in.dst] = fr[in.a] + fr[in.b]*uint64(in.x) + uint64(in.y)

		case opGEPLoad, opGEPStore, opGEPOnce:
			// The GEP, the guard of its result in the next slot and the
			// access through the guard's in the one after: one dispatch,
			// settled once, before the guard. With fewer than three steps
			// of budget left the GEP runs alone and the other two run, and
			// trip, from their own slots.
			p := fr[in.a] + fr[in.b]*uint64(in.x) + uint64(in.y)
			fr[in.dst] = p
			if budget-n < 2 {
				break
			}
			g, acc := &code[pc], &code[pc+1]
			pc += 2
			budget, n = m.settle(n+1), 0
			q, err := m.rt.GuardSite(&f.memos[g.b], p, g.op == opGuardW, in.op == opGEPOnce, int(g.x), int(g.y))
			if err != nil {
				return 0, m.trap(0, f, g, err)
			}
			fr[g.dst] = q
			n = 1
			if in.op == opGEPLoad {
				v, err := m.rt.ReadWord(q)
				if err != nil {
					return 0, m.trap(n, f, acc, err)
				}
				fr[acc.dst] = v
			} else if err := m.rt.WriteWord(q, fr[acc.b]); err != nil {
				return 0, m.trap(n, f, acc, err)
			}

		case opGuardR, opGuardW:
			budget, n = m.settle(n), 0
			p, err := m.rt.GuardSite(&f.memos[in.b], fr[in.a], in.op == opGuardW, false, int(in.x), int(in.y))
			if err != nil {
				return 0, m.trap(0, f, in, err)
			}
			fr[in.dst] = p

		case opAllLocal:
			budget, n = m.settle(n), 0
			fr[in.dst] = b2u(m.rt.AllLocal(in.src.DSRefs))

		case opPrefetch:
			budget, n = m.settle(n), 0
			m.rt.Prefetch(fr[in.a])

		case opCall:
			m.settle(n)
			ret, err := m.call(in.callee, bp+f.frame, f.args[in.x:in.y], bp)
			if err != nil {
				return 0, err
			}
			// The callee may have grown (moved) the stack.
			fr = m.stack[bp : bp+f.frame]
			fr[in.dst] = ret
			budget, n = m.settle(0), 0

		case opROIBegin:
			budget, n = m.settle(n), 0
			m.rt.SettleHits()
			m.roiStart = m.clock.Now()
			m.inROI = true

		case opROIEnd:
			budget, n = m.settle(n), 0
			m.rt.SettleHits()
			if m.inROI {
				m.stats.ROICycles += m.clock.Now() - m.roiStart
				m.inROI = false
			}

		case opRet:
			m.settle(n)
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
			if in.src.Op == ir.OpBin {
				return 0, m.trap(n, f, in, fmt.Errorf("unknown binary op %v", in.src.Kind))
			}
			m.settle(n)
			return 0, fmt.Errorf("interp: @%s: unexecutable op %s", f.name, in.src.Op)
		}
	}
}
