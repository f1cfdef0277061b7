package ir

import (
	"fmt"
	"strings"
)

// Block is a basic block: a label, a straight-line instruction sequence,
// and a single terminator as the final instruction.
type Block struct {
	Name   string
	Instrs []*Instr
	fn     *Function
}

// Func returns the function containing the block.
func (b *Block) Func() *Function { return b.fn }

// Term returns the block terminator, or nil if the block is unterminated.
func (b *Block) Term() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerminator() {
		return b.Instrs[n-1]
	}
	return nil
}

// Succs returns the block's control-flow successors.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr:
		if t.Then == t.Else {
			return []*Block{t.Then}
		}
		return []*Block{t.Then, t.Else}
	case OpJmp:
		return []*Block{t.Target}
	}
	return nil
}

// Append adds an instruction to the end of the block.
func (b *Block) Append(in *Instr) { b.Instrs = append(b.Instrs, in) }

// InsertBefore inserts in immediately before position idx.
func (b *Block) InsertBefore(idx int, in *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// Function is a procedure: parameters, a return type, and a CFG of blocks
// with Blocks[0] as the entry.
type Function struct {
	Name   string
	Params []*Reg
	Result Type
	Blocks []*Block

	regs   []*Reg
	module *Module
}

// Module returns the containing module.
func (f *Function) Module() *Module { return f.module }

// Entry returns the entry block (Blocks[0]).
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewReg allocates a fresh virtual register.
func (f *Function) NewReg(name string, t Type) *Reg {
	r := &Reg{ID: len(f.regs), Name: name, Type: t}
	f.regs = append(f.regs, r)
	return r
}

// Regs returns all registers of the function (including parameters).
func (f *Function) Regs() []*Reg { return f.regs }

// NewBlock creates and appends a block. The first block created is the
// entry block.
func (f *Function) NewBlock(name string) *Block {
	b := &Block{Name: f.uniqueBlockName(name), fn: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

func (f *Function) uniqueBlockName(name string) string {
	if name == "" {
		name = "bb"
	}
	used := make(map[string]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		used[b.Name] = true
	}
	if !used[name] {
		return name
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s.%d", name, i)
		if !used[cand] {
			return cand
		}
	}
}

// BlockByName returns the block with the given name, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Instrs iterates over every instruction in the function in block order,
// invoking fn with the containing block and index. Returning false stops
// the walk.
func (f *Function) Instrs(visit func(b *Block, idx int, in *Instr) bool) {
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if !visit(b, i, in) {
				return
			}
		}
	}
}

// Module is a whole program: an ordered set of functions. The function
// named "main" is the program entry point.
type Module struct {
	Name  string
	Funcs []*Function

	byName map[string]*Function
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, byName: make(map[string]*Function)}
}

// NewFunc creates a function with the given parameters and result type
// and registers it in the module. Parameter registers are created in
// order and marked Param.
func (m *Module) NewFunc(name string, result Type, params ...Param) *Function {
	if _, dup := m.byName[name]; dup {
		panic(fmt.Sprintf("ir: duplicate function %q", name))
	}
	f := &Function{Name: name, Result: result, module: m}
	for _, p := range params {
		r := f.NewReg(p.Name, p.Type)
		r.Param = true
		f.Params = append(f.Params, r)
	}
	m.Funcs = append(m.Funcs, f)
	m.byName[name] = f
	return f
}

// Param describes one formal parameter for NewFunc.
type Param struct {
	Name string
	Type Type
}

// P is a convenience constructor for a parameter.
func P(name string, t Type) Param { return Param{Name: name, Type: t} }

// FuncByName returns the function with the given name, or nil.
func (m *Module) FuncByName(name string) *Function { return m.byName[name] }

// Main returns the entry function, or nil.
func (m *Module) Main() *Function { return m.FuncByName("main") }

// AssignSites numbers every instruction in the module with a stable Site
// ID (deterministic across runs: functions in creation order, blocks in
// order, instructions in order). DSA uses sites to key allocation
// contexts; the bench harness uses them in reports.
func (m *Module) AssignSites() {
	site := 0
	for _, f := range m.Funcs {
		f.Instrs(func(_ *Block, _ int, in *Instr) bool {
			in.Site = site
			site++
			return true
		})
	}
}

// String renders the whole module in textual form, including the struct
// type declarations the functions reference, so that Parse can rebuild
// the module (see parse.go).
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	for _, st := range m.structTypes() {
		fields := make([]string, len(st.Fields))
		for i, f := range st.Fields {
			fields[i] = fmt.Sprintf("%s %s", f.Name, f.Type)
		}
		fmt.Fprintf(&sb, "type %%%s = { %s }\n", st.Name, strings.Join(fields, ", "))
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// structTypes collects the named struct types referenced anywhere in the
// module, in first-appearance order.
func (m *Module) structTypes() []*StructType {
	seen := make(map[*StructType]bool)
	var out []*StructType
	var visit func(t Type)
	visit = func(t Type) {
		switch tt := t.(type) {
		case *StructType:
			if tt.Name != "" && !seen[tt] {
				seen[tt] = true
				out = append(out, tt)
				for _, f := range tt.Fields {
					visit(f.Type)
				}
			}
		case *PtrType:
			visit(tt.Elem)
		case *ArrayType:
			visit(tt.Elem)
		}
	}
	for _, f := range m.Funcs {
		for _, p := range f.Params {
			visit(p.Type)
		}
		visit(f.Result)
		f.Instrs(func(_ *Block, _ int, in *Instr) bool {
			if in.Elem != nil {
				visit(in.Elem)
			}
			return true
		})
	}
	return out
}

// String renders the function in textual form.
func (f *Function) String() string {
	var sb strings.Builder
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = fmt.Sprintf("%s %s", p, p.Type)
	}
	fmt.Fprintf(&sb, "\nfunc @%s(%s) %s {\n", f.Name, strings.Join(params, ", "), f.Result)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
