package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// AtomicFuncs bans the function-style sync/atomic API (atomic.AddInt64,
// atomic.LoadPointer & co.) outside tests. Those functions act on plain
// fields, so one forgotten plain read or write of such a field is a data
// race; the typed atomics (atomic.Int64, atomic.Pointer[T], ...) make
// every access go through a method instead. Copying a typed atomic's
// value is the remaining hazard, and go vet's copylocks check reports it.
type AtomicFuncs struct{}

// NewAtomicFuncs returns the check.
func NewAtomicFuncs() *AtomicFuncs { return &AtomicFuncs{} }

// Name implements Check.
func (c *AtomicFuncs) Name() string { return "atomicfuncs" }

// Run implements Check.
func (c *AtomicFuncs) Run(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		walkFiles(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // a typed atomic's method
			}
			diags = append(diags, Diagnostic{
				Pos:   prog.position(call.Pos()),
				Check: c.Name(),
				Message: fmt.Sprintf(
					"function-style atomic.%s on a plain value; use a typed atomic (atomic.Int64, atomic.Pointer[T], ...) so no access can bypass it",
					fn.Name()),
			})
			return true
		})
	}
	return diags
}
