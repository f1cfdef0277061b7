package ir

import (
	"fmt"
	"strings"
)

// Op enumerates instruction opcodes.
type Op int

// Opcodes. The first group mirrors a conventional load/store IR; the
// second group ("runtime intrinsics") is introduced by CaRDS transform
// passes and consumed by the runtime, mirroring the calls the real CaRDS
// compiler injects into the AIFM-derived runtime (paper Listings 2–4).
const (
	OpInvalid Op = iota

	// Dst = constant (IntVal or FloatVal).
	OpConst
	// Dst = X <BinKind> Y.
	OpBin
	// Dst = Src (register copy / move).
	OpCopy
	// Dst = alloc ElemType, Count  — heap allocation of Count elements.
	// Before pool allocation this is a bare malloc; afterwards DS >= 0
	// links it to a compiler-identified data structure (dsalloc).
	OpAlloc
	// Dst = load Type, Addr.
	OpLoad
	// store Type, Val -> Addr.
	OpStore
	// Dst = gep Base, Index, ElemSize, ConstOff:
	// Dst = Base + Index*ElemSize + ConstOff.
	OpGEP
	// Dst = call Callee(Args...).
	OpCall
	// ret [Val].
	OpRet
	// br Cond, Then, Else.
	OpBr
	// jmp Target.
	OpJmp

	// Runtime intrinsics inserted by transforms:

	// Dst = cards_guard Addr (IsWrite): custody check + possible deref
	// slow path; yields a localized address (Figure 3 / Listing 4).
	OpGuard
	// Dst = cards_all_local(DSRefs...): 1 iff every listed data structure
	// is currently non-remoted, enabling the uninstrumented loop version
	// (Listing 3).
	OpAllLocal
	// cards_prefetch Addr: non-binding prefetch hint for Addr's object.
	OpPrefetch
)

var opNames = map[Op]string{
	OpConst:    "const",
	OpBin:      "bin",
	OpCopy:     "copy",
	OpAlloc:    "alloc",
	OpLoad:     "load",
	OpStore:    "store",
	OpGEP:      "gep",
	OpCall:     "call",
	OpRet:      "ret",
	OpBr:       "br",
	OpJmp:      "jmp",
	OpGuard:    "cards_guard",
	OpAllLocal: "cards_all_local",
	OpPrefetch: "cards_prefetch",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// BinKind enumerates binary operators. Comparison operators yield 0/1 in
// an integer register.
type BinKind int

// Binary operators.
const (
	Add BinKind = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	EQ
	NE
	LT
	LE
	GT
	GE
	FAdd
	FSub
	FMul
	FDiv
	FLT
	// IToF converts the integer X to float64 (Y is ignored; pass CI(0)).
	IToF
)

var binNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	EQ: "eq", NE: "ne", LT: "lt", LE: "le", GT: "gt", GE: "ge",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FLT: "flt",
	IToF: "itof",
}

func (b BinKind) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("bin(%d)", int(b))
}

// Value is an instruction operand: either a *Reg or a constant.
type Value interface {
	value()
	String() string
}

// Reg is a function-scoped virtual register.
type Reg struct {
	ID   int
	Name string
	Type Type
	// Param is true for registers bound to incoming arguments.
	Param bool
}

func (*Reg) value() {}

func (r *Reg) String() string {
	if r.Name != "" {
		return "%" + r.Name
	}
	return fmt.Sprintf("%%r%d", r.ID)
}

// IntConst is an integer literal operand.
type IntConst struct{ V int64 }

func (IntConst) value()           {}
func (c IntConst) String() string { return fmt.Sprintf("%d", c.V) }

// FloatConst is a float literal operand.
type FloatConst struct{ V float64 }

func (FloatConst) value()           {}
func (c FloatConst) String() string { return fmt.Sprintf("%g", c.V) }

// CI builds an integer constant operand.
func CI(v int64) Value { return IntConst{V: v} }

// CF builds a float constant operand.
func CF(v float64) Value { return FloatConst{V: v} }

// Instr is a single IR instruction. One struct covers all opcodes; unused
// fields are zero. This "fat node" layout keeps transform passes simple:
// they mutate instructions in place and splice instruction slices.
type Instr struct {
	Op  Op
	Dst *Reg

	// OpConst.
	IntVal   int64
	FloatVal float64
	IsFloat  bool

	// OpBin.
	Kind BinKind
	X, Y Value

	// OpCopy / OpStore value / OpGuard & OpPrefetch address / OpRet value.
	Src Value

	// OpAlloc: element type and count; OpLoad/OpStore: accessed type.
	Elem  Type
	Count Value

	// OpLoad/OpStore/OpGuard/OpPrefetch address operand.
	Addr Value

	// OpGEP.
	Base     Value
	Index    Value
	ElemSize int
	ConstOff int

	// OpCall.
	Callee string
	Args   []Value

	// OpBr / OpJmp.
	Cond       Value
	Then, Else *Block
	Target     *Block

	// --- Pass annotations ---

	// DS is the data structure ID assigned by pool allocation to OpAlloc
	// (and propagated to OpAllLocal DSRefs). -1 until assigned.
	DS int

	// DSHandle is the register or value carrying the data structure
	// handle after pool allocation rewrote this alloc into dsalloc
	// (Listing 2). Nil before the transform.
	DSHandle Value

	// IsWrite distinguishes write guards from read guards.
	IsWrite bool

	// GLo/GHi bound the byte span [GLo, GHi) relative to Addr that the
	// stores covered by a write guard may modify (the guard's own store
	// plus every store elided onto it). GHi <= GLo means unknown; the
	// runtime then dirties conservatively. Meaningless on read guards.
	GLo, GHi int

	// DSRefs lists data structure IDs consulted by OpAllLocal.
	DSRefs []int

	// Site is a stable allocation-site / instruction identifier assigned
	// by the verifier pass, used by DSA to key context-sensitive clones.
	Site int

	// Gather, on a read guard, names the guarded address as a chain of
	// loads from an enclosing counted loop's induction variable
	// (analysis.Result.Gathers). It is metadata for the runtime's miss
	// path: no pass, printer or interpreter step reads it otherwise.
	Gather *Gather
}

// Gather is a guard site's address as a function of an enclosing
// counted loop's induction variable IV (stepping by Step, exiting at
// Bound): from x = IV, each step sets x = Base + x*Scale + Off, and every
// step but the last loads the word at x. The last step's x is the
// guarded address.
type Gather struct {
	IV, Bound Value
	Step      int64
	Steps     []GatherStep
}

// GatherStep is one link of a Gather chain.
type GatherStep struct {
	Base       Value
	Scale, Off int64
}

// NewInstr returns an instruction with annotation fields initialized.
func NewInstr(op Op) *Instr { return &Instr{Op: op, DS: -1} }

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpRet, OpBr, OpJmp:
		return true
	}
	return false
}

// Operands returns the value operands read by the instruction (not
// including block targets).
func (in *Instr) Operands() []Value {
	var vs []Value
	add := func(v Value) {
		if v != nil {
			vs = append(vs, v)
		}
	}
	add(in.X)
	add(in.Y)
	add(in.Src)
	add(in.Count)
	add(in.Addr)
	add(in.Base)
	add(in.Index)
	add(in.Cond)
	add(in.DSHandle)
	vs = append(vs, in.Args...)
	return vs
}

// String renders the instruction in the textual syntax used by the
// printer and in test expectations.
func (in *Instr) String() string {
	dst := ""
	if in.Dst != nil {
		dst = in.Dst.String() + " = "
	}
	switch in.Op {
	case OpConst:
		if in.IsFloat {
			return fmt.Sprintf("%sfconst %g", dst, in.FloatVal)
		}
		return fmt.Sprintf("%sconst %d", dst, in.IntVal)
	case OpBin:
		return fmt.Sprintf("%s%s %s, %s", dst, in.Kind, in.X, in.Y)
	case OpCopy:
		return fmt.Sprintf("%scopy %s", dst, in.Src)
	case OpAlloc:
		s := fmt.Sprintf("%salloc %s, %s", dst, in.Elem, in.Count)
		if in.DS >= 0 {
			s += fmt.Sprintf(" ; ds=%d", in.DS)
		}
		return s
	case OpLoad:
		return fmt.Sprintf("%sload %s, %s", dst, in.Elem, in.Addr)
	case OpStore:
		return fmt.Sprintf("store %s, %s -> %s", in.Elem, in.Src, in.Addr)
	case OpGEP:
		return fmt.Sprintf("%sgep %s, %s, %d, %d", dst, in.Base, valOrZero(in.Index), in.ElemSize, in.ConstOff)
	case OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = a.String()
		}
		return fmt.Sprintf("%scall @%s(%s)", dst, in.Callee, strings.Join(args, ", "))
	case OpRet:
		if in.Src != nil {
			return fmt.Sprintf("ret %s", in.Src)
		}
		return "ret"
	case OpBr:
		return fmt.Sprintf("br %s, %s, %s", in.Cond, in.Then.Name, in.Else.Name)
	case OpJmp:
		return fmt.Sprintf("jmp %s", in.Target.Name)
	case OpGuard:
		mode := "r"
		if in.IsWrite {
			mode = "w"
		}
		return fmt.Sprintf("%scards_guard.%s %s", dst, mode, in.Addr)
	case OpAllLocal:
		return fmt.Sprintf("%scards_all_local %v", dst, in.DSRefs)
	case OpPrefetch:
		return fmt.Sprintf("cards_prefetch %s", in.Addr)
	}
	return fmt.Sprintf("<invalid op %d>", int(in.Op))
}

func valOrZero(v Value) string {
	if v == nil {
		return "0"
	}
	return v.String()
}
