package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/ssa"
)

// This file is the shared substrate of the shareguard pass — the three
// data-race checks sharedfield, guardlock and pubimmut (DESIGN.md §12).
// It classifies every access to a scoped struct field by who can reach
// it and what protects it:
//
//   - shared: the access happens in goroutine-reachable code, through a
//     base value that may be visible to more than one goroutine. The
//     base judgment is a global taint over variables: a variable is
//     tainted when it escapes to a goroutine in some function (the
//     ssa.AnalyzeEscapes layer: go captures, go call arguments, channel
//     sends, stores into already-escaping bases), when it is a
//     package-level variable, or when it is a parameter/receiver bound
//     to a tainted argument at any statically resolved call site — the
//     interprocedural closure that lets a worker's helper methods see
//     that their receiver is the published engine state, while a
//     worker-local heap stays untainted and free.
//   - guarded: the lockset that may be held at the access. Locksets are
//     the lockorder fixpoint (may-held, union at joins, deferred Unlock
//     keeps the lock) extended with an entry set per function: the
//     union over all statically resolved call sites of the caller's
//     held set, so a helper that is only ever called under mu counts as
//     guarded by mu. A function spawned by a go statement starts with
//     nothing held; an inline function literal inherits its encloser's
//     held set at the literal's position.
//   - published: whether the access is definitely before or definitely
//     after the base value's earliest escape site in the enclosing
//     function, decided by dominance (same block: node order). A write
//     that is definitely pre-escape is a constructor filling in a value
//     nobody else can see yet; a write definitely post-escape needs
//     synchronization (pubimmut).
//
// Every judgment errs on the lenient side — unresolvable calls break
// taint chains, the entry set is a union, unordered blocks are neither
// pre- nor post-escape — matching the ctxflow philosophy: a may-analysis
// that flags only what it can demonstrate on every reading stays quiet
// enough to hard-gate CI.
//
// A field can pin its intended guard with the declaration annotation
//
//	//lint:guardedby <lock>
//
// where <lock> names a sibling field of the same struct of type
// sync.Mutex or sync.RWMutex. Annotated fields are enforced by
// guardlock at every shared access (evidence or not) and skipped by
// sharedfield.

// sgScopes are the packages whose fields shareguard audits: everything
// the parallel engine and the shard executor share across goroutines.
func sgScopes() []string {
	return []string{"internal/core", "internal/rtree", "internal/storage", "internal/obs", "internal/shard"}
}

// sgAccess is one classified access to a scoped struct field.
type sgAccess struct {
	field *types.Var
	pos   token.Pos
	// write marks an assignment or inc/dec whose target is the field.
	write bool
	// node is the callgraph node of the enclosing function.
	node any
	// base is the root variable the selector chain starts from (nil when
	// the chain roots in a call result).
	base *types.Var
	// held is the local may-held lockset at the access (the enclosing
	// function's entry set is added by heldAt).
	held map[*types.Var]bool
	// preEscape / postEscape order the access against base's earliest
	// escape site in the enclosing function (both false when base does
	// not escape there or the blocks are unordered).
	preEscape  bool
	postEscape bool
	// escapePos is the escape site's position when postEscape is set.
	escapePos token.Pos
}

// sgFacts bundles everything the three shareguard checks consume.
type sgFacts struct {
	prog   *Program
	scopes []string
	// reach maps goroutine-reachable callgraph nodes to the spawn site
	// that first reached them.
	reach map[any]token.Pos
	// tainted marks variables that may be visible to >1 goroutine.
	tainted map[*types.Var]bool
	// accesses collects every scoped field access, keyed by field.
	accesses map[*types.Var][]*sgAccess
	// fields lists the access map's keys in declaration order.
	fields []*types.Var
	// entryHeld is the union of caller-held locksets per callgraph node.
	entryHeld map[any]map[*types.Var]bool
	// atomicUse marks fields whose address reaches a sync/atomic call
	// somewhere (the atomicfuncs check bans that API outside tests).
	atomicUse map[*types.Var]bool
	// guardedBy maps an annotated field to its declared lock field.
	guardedBy map[*types.Var]*types.Var
	// badGuards are malformed //lint:guardedby annotations, reported by
	// guardlock.
	badGuards []Diagnostic

	typeMemo map[types.Type]bool
}

// sgBind is one interprocedural binding for the taint fixpoint: param
// becomes tainted when any of roots is.
type sgBind struct {
	param *types.Var
	roots []*types.Var
}

// sgAlias is one intraprocedural alias/store edge for the taint
// fixpoint.
type sgAlias struct {
	// dst is the variable written (alias rule); nil for a store through
	// base (store rule, taints roots when base is tainted).
	dst   *types.Var
	base  *types.Var
	roots []*types.Var
}

// sgHeldCall is one statically resolved call site with the caller's held
// set, for the entry-set fixpoint.
type sgHeldCall struct {
	caller any
	callee any // *types.Func or *ast.FuncLit
	held   map[*types.Var]bool
}

// shareguardFacts builds (or returns the memoized) substrate.
func shareguardFacts(prog *Program, scopes []string) *sgFacts {
	if prog.sg != nil {
		return prog.sg
	}
	f := &sgFacts{
		prog:      prog,
		scopes:    scopes,
		reach:     prog.Callgraph().reachableFromGo(),
		tainted:   make(map[*types.Var]bool),
		accesses:  make(map[*types.Var][]*sgAccess),
		entryHeld: make(map[any]map[*types.Var]bool),
		atomicUse: make(map[*types.Var]bool),
		guardedBy: make(map[*types.Var]*types.Var),
		typeMemo:  make(map[types.Type]bool),
	}
	f.collectAtomicUse()
	f.collectAnnotations()

	var binds []sgBind
	var aliases []sgAlias
	var calls []sgHeldCall
	for _, pkg := range prog.Packages {
		for _, fs := range funcsOf(prog, pkg) {
			node := fs.node(pkg)
			if node == nil {
				continue
			}
			b, a, c := f.scanFunc(fs, node)
			binds = append(binds, b...)
			aliases = append(aliases, a...)
			calls = append(calls, c...)
		}
	}
	f.solveTaint(binds, aliases)
	f.solveEntryHeld(calls)
	for v := range f.accesses {
		f.fields = append(f.fields, v)
	}
	sort.Slice(f.fields, func(i, j int) bool { return f.fields[i].Pos() < f.fields[j].Pos() })
	prog.sg = f
	return f
}

// collectAtomicUse gathers the fields whose address flows into a
// function-style sync/atomic call (banned outside tests by atomicfuncs).
func (f *sgFacts) collectAtomicUse() {
	for _, pkg := range f.prog.Packages {
		info := pkg.Info
		walkFiles(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				if fld := addressedField(info, arg); fld != nil {
					f.atomicUse[fld] = true
				}
			}
			return true
		})
	}
}

// collectAnnotations parses //lint:guardedby annotations off struct field
// declarations in scope. A malformed annotation (missing lock name, no
// sibling field of that name, sibling is not a mutex) becomes a
// badGuards diagnostic.
func (f *sgFacts) collectAnnotations() {
	for _, pkg := range f.prog.Packages {
		if !pathInScope(pkg.ImportPath, f.scopes) {
			continue
		}
		info := pkg.Info
		walkFiles(pkg, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				lock, pos, ok := guardAnnotation(fld)
				if !ok {
					continue
				}
				f.bindAnnotation(info, st, fld, lock, pos)
			}
			return true
		})
	}
}

// guardAnnotation extracts the lock name of a field's //lint:guardedby
// comment, returning ok=false when the field carries none. An empty name
// returns ok=true with lock=="" so the caller can flag it.
func guardAnnotation(fld *ast.Field) (lock string, pos token.Pos, ok bool) {
	var comments []*ast.Comment
	if fld.Doc != nil {
		comments = append(comments, fld.Doc.List...)
	}
	if fld.Comment != nil {
		comments = append(comments, fld.Comment.List...)
	}
	for _, c := range comments {
		rest, found := strings.CutPrefix(c.Text, "//lint:guardedby")
		if !found {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return "", c.Pos(), true
		}
		return fields[0], c.Pos(), true
	}
	return "", token.NoPos, false
}

// bindAnnotation resolves one annotation: the named lock must be a
// sibling field of the same struct with a mutex type.
func (f *sgFacts) bindAnnotation(info *types.Info, st *ast.StructType, fld *ast.Field, lock string, pos token.Pos) {
	bad := func(format string, args ...any) {
		f.badGuards = append(f.badGuards, Diagnostic{
			Pos:     f.prog.position(pos),
			Check:   "guardlock",
			Message: fmt.Sprintf(format, args...),
		})
	}
	if lock == "" {
		bad(`malformed annotation: want "//lint:guardedby <lock>"`)
		return
	}
	var lockVar *types.Var
	for _, sib := range st.Fields.List {
		for _, name := range sib.Names {
			if name.Name == lock {
				lockVar, _ = info.Defs[name].(*types.Var)
			}
		}
	}
	if lockVar == nil {
		bad("//lint:guardedby names %s, which is not a field of this struct", lock)
		return
	}
	if !isMutexType(lockVar.Type()) {
		bad("//lint:guardedby names %s, which is not a sync.Mutex or sync.RWMutex", lock)
		return
	}
	for _, name := range fld.Names {
		if fv, ok := info.Defs[name].(*types.Var); ok {
			f.guardedBy[fv] = lockVar
		}
	}
}

// scanFunc walks one function's IR: it records scoped field accesses with
// their local locksets and escape ordering, and returns the taint binds,
// alias edges, and held call sites the global fixpoints need.
func (f *sgFacts) scanFunc(fs FuncSource, node any) ([]sgBind, []sgAlias, []sgHeldCall) {
	info := fs.Pkg.Info
	ir := f.prog.IR(fs)
	esc := f.prog.escFor(ir, info)
	dom := ir.Dominators()

	var binds []sgBind
	var aliases []sgAlias
	var calls []sgHeldCall

	// escLoc locates a variable's earliest escape site: its block and the
	// index of the recorded node within it.
	type loc struct {
		block *ssa.Block
		idx   int
	}
	escLoc := make(map[*types.Var]loc)
	for _, v := range esc.Escaping() {
		site := esc.Site(v)
		if site == nil {
			continue
		}
		for _, b := range ir.Blocks {
			for i, n := range b.Nodes {
				if n == site {
					escLoc[v] = loc{b, i}
				}
			}
		}
	}

	// May-held fixpoint over the blocks (the lockorder discipline:
	// union at joins, deferred Unlock never seen so the lock stays held,
	// go/defer bodies skipped).
	events := make(map[*ssa.Block][]lockEvent)
	for _, b := range ir.Blocks {
		for _, n := range b.Nodes {
			events[b] = append(events[b], f.lockEventsOf(info, n)...)
		}
	}
	in := sgHeldFixpoint(ir, events)

	// heldBefore replays block b's events up to (not including) pos.
	heldBefore := func(b *ssa.Block, pos token.Pos) map[*types.Var]bool {
		held := make(map[*types.Var]bool, len(in[b]))
		for v := range in[b] {
			held[v] = true
		}
		for _, e := range events[b] {
			if e.pos >= pos {
				break
			}
			switch e.kind {
			case evLock:
				held[e.lock] = true
			case evUnlock:
				delete(held, e.lock)
			}
		}
		return held
	}

	record := func(b *ssa.Block, idx int, sel *ast.SelectorExpr, write bool) {
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok || field.Pkg() == nil || !pathInScope(field.Pkg().Path(), f.scopes) {
			return
		}
		acc := &sgAccess{
			field: field,
			pos:   sel.Sel.Pos(),
			write: write,
			node:  node,
			base:  ssa.BaseVar(info, sel),
			held:  heldBefore(b, sel.Pos()),
		}
		if acc.base != nil {
			if l, ok := escLoc[acc.base]; ok {
				switch {
				case l.block == b:
					site := b.Nodes[l.idx]
					if sel.Pos() < site.Pos() {
						acc.preEscape = true
					} else if sel.Pos() >= site.End() {
						acc.postEscape = true
						acc.escapePos = site.Pos()
					}
				case dom.Dominates(l.block, b):
					acc.postEscape = true
					acc.escapePos = b.Nodes[0].Pos()
					if site := esc.Site(acc.base); site != nil {
						acc.escapePos = site.Pos()
					}
				case dom.Dominates(b, l.block):
					acc.preEscape = true
				}
			}
		}
		f.accesses[field] = append(f.accesses[field], acc)
	}

	// recordExpr registers every field selection under expr as a read.
	var recordExpr func(b *ssa.Block, idx int, e ast.Expr)
	recordExpr = func(b *ssa.Block, idx int, e ast.Expr) {
		if e == nil {
			return
		}
		ssa.Inspect(e, func(m ast.Node) bool {
			if sel, ok := m.(*ast.SelectorExpr); ok {
				record(b, idx, sel, false)
			}
			return true
		})
	}

	// bindCall registers the taint binds of one call whose signature is
	// statically known (arguments to parameters, receiver expression to
	// the receiver) and returns the callee node for the held-call list —
	// the *types.Func for a resolved call, the *ast.FuncLit for a
	// directly invoked literal, nil for a dynamic call.
	bindCall := func(call *ast.CallExpr) any {
		var sig *types.Signature
		var callee any
		if fn := staticCallee(info, call); fn != nil {
			sig, _ = fn.Type().(*types.Signature)
			callee = fn
		} else if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			if t := info.TypeOf(lit); t != nil {
				sig, _ = t.(*types.Signature)
			}
			callee = lit
		}
		if sig == nil {
			return nil
		}
		if recv := sig.Recv(); recv != nil {
			if selx, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				binds = append(binds, sgBind{param: recv, roots: taintRoots(info, selx.X)})
			}
		}
		params := sig.Params()
		for i, arg := range call.Args {
			var p *types.Var
			switch {
			case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
				p = params.At(i)
			case params.Len() > 0:
				p = params.At(params.Len() - 1) // variadic tail
			}
			if p != nil {
				binds = append(binds, sgBind{param: p, roots: taintRoots(info, arg)})
			}
		}
		return callee
	}

	// aliasOf registers the taint edges of one assignment pair.
	aliasOf := func(lhs, rhs ast.Expr) {
		if rhs == nil {
			return
		}
		switch t := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			roots := taintRoots(info, rhs)
			if len(roots) == 0 {
				return
			}
			if v, ok := info.Defs[t].(*types.Var); ok {
				aliases = append(aliases, sgAlias{dst: v, roots: roots})
			} else if v, ok := info.Uses[t].(*types.Var); ok {
				aliases = append(aliases, sgAlias{dst: v, roots: roots})
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			roots := ssa.RootVars(info, rhs)
			if len(roots) == 0 {
				return
			}
			if base := ssa.BaseVar(info, lhs); base != nil {
				aliases = append(aliases, sgAlias{base: base, roots: roots})
			}
		}
	}

	for _, b := range ir.Blocks {
		for idx, n := range b.Nodes {
			// Writes come from the statement's shape; everything else
			// under the node is a read.
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						record(b, idx, sel, true)
						recordExpr(b, idx, sel.X)
					} else {
						recordExpr(b, idx, lhs)
					}
				}
				for _, rhs := range n.Rhs {
					recordExpr(b, idx, rhs)
				}
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						aliasOf(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					record(b, idx, sel, true)
					recordExpr(b, idx, sel.X)
				} else {
					recordExpr(b, idx, n.X)
				}
			case *ast.DeclStmt:
				if gd, ok := n.Decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
							for i, name := range vs.Names {
								recordExpr(b, idx, vs.Values[i])
								aliasOf(name, vs.Values[i])
							}
						}
					}
				}
			default:
				ssa.Inspect(n, func(m ast.Node) bool {
					if sel, ok := m.(*ast.SelectorExpr); ok {
						record(b, idx, sel, false)
					}
					return true
				})
			}

			// Call sites: taint binds always; held binds only for calls
			// that run here and now (not go, not defer).
			ssa.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.GoStmt:
					bindCall(m.Call)
					return false
				case *ast.DeferStmt:
					bindCall(m.Call)
					return false
				case *ast.CallExpr:
					if fn := bindCall(m); fn != nil {
						calls = append(calls, sgHeldCall{caller: node, callee: fn, held: heldBefore(b, m.Lparen)})
					}
				case *ast.FuncLit:
					calls = append(calls, sgHeldCall{caller: node, callee: m, held: heldBefore(b, m.Pos())})
					return false
				}
				return true
			})
		}
	}
	return binds, aliases, calls
}

// taintRoots collects the variables whose *storage* an expression's
// value may share: identifiers, address-of, dereference, and
// selector/index/slice chains. Unlike ssa.RootVars it does NOT traverse
// composite literals — `e := expansion{j: j}` builds a fresh value, and
// holding a pointer to shared state inside it does not make e's own
// storage shared. (The reverse direction still uses RootVars: storing a
// composite into an already-shared base publishes its contents.)
func taintRoots(info *types.Info, expr ast.Expr) []*types.Var {
	var out []*types.Var
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok {
				out = append(out, v)
			} else if v, ok := info.Defs[e].(*types.Var); ok {
				out = append(out, v)
			}
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.StarExpr:
			walk(e.X)
		case *ast.SelectorExpr:
			walk(e.X)
		case *ast.IndexExpr:
			walk(e.X)
		case *ast.SliceExpr:
			walk(e.X)
		}
	}
	walk(expr)
	return out
}

// lockEventsOf extracts the lock/unlock events of one block node, in
// traversal order, skipping defer and go bodies like lockorder does.
func (f *sgFacts) lockEventsOf(info *types.Info, n ast.Node) []lockEvent {
	var evs []lockEvent
	ssa.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if v := f.mutexOf(info, sel.X); v != nil {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					evs = append(evs, lockEvent{kind: evLock, lock: v, pos: m.Lparen})
				case "Unlock", "RUnlock":
					evs = append(evs, lockEvent{kind: evUnlock, lock: v, pos: m.Lparen})
				}
			}
		}
		return true
	})
	return evs
}

// mutexOf resolves an expression to a scoped mutex variable (field or
// plain variable of type sync.Mutex / sync.RWMutex).
func (f *sgFacts) mutexOf(info *types.Info, e ast.Expr) *types.Var {
	var v *types.Var
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			v, _ = sel.Obj().(*types.Var)
		} else if obj, ok := info.Uses[e.Sel].(*types.Var); ok {
			v = obj
		}
	case *ast.Ident:
		v, _ = info.Uses[e].(*types.Var)
	}
	if v == nil || v.Pkg() == nil || !pathInScope(v.Pkg().Path(), f.scopes) {
		return nil
	}
	if !isMutexType(v.Type()) {
		return nil
	}
	return v
}

// sgHeldFixpoint runs the may-held dataflow (in = union of preds' out)
// and returns the per-block entry sets.
func sgHeldFixpoint(ir *ssa.Func, events map[*ssa.Block][]lockEvent) map[*ssa.Block]map[*types.Var]bool {
	in := make(map[*ssa.Block]map[*types.Var]bool)
	out := make(map[*ssa.Block]map[*types.Var]bool)
	for _, b := range ir.Blocks {
		in[b] = map[*types.Var]bool{}
		out[b] = map[*types.Var]bool{}
	}
	transfer := func(b *ssa.Block) map[*types.Var]bool {
		held := make(map[*types.Var]bool, len(in[b]))
		for v := range in[b] {
			held[v] = true
		}
		for _, e := range events[b] {
			switch e.kind {
			case evLock:
				held[e.lock] = true
			case evUnlock:
				delete(held, e.lock)
			}
		}
		return held
	}
	for changed := true; changed; {
		changed = false
		for _, b := range ir.Blocks {
			inb := in[b]
			for _, p := range b.Preds {
				for v := range out[p] {
					if !inb[v] {
						inb[v] = true
						changed = true
					}
				}
			}
			nout := transfer(b)
			if !sgSetEq(nout, out[b]) {
				out[b] = nout
				changed = true
			}
		}
	}
	return in
}

func sgSetEq(a, b map[*types.Var]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// solveTaint closes the tainted-variable set: seeds are per-function
// escapes and package-level variables; the closure adds assignment
// aliases, stores through tainted bases, and call-site bindings, to a
// fixpoint.
func (f *sgFacts) solveTaint(binds []sgBind, aliases []sgAlias) {
	for _, pkg := range f.prog.Packages {
		for _, fs := range funcsOf(f.prog, pkg) {
			ir := f.prog.IR(fs)
			for _, v := range f.prog.escFor(ir, fs.Pkg.Info).Escaping() {
				f.tainted[v] = true
			}
		}
	}
	isTainted := func(v *types.Var) bool {
		return v != nil && (f.tainted[v] || sgIsGlobal(v))
	}
	anyTainted := func(roots []*types.Var) bool {
		for _, r := range roots {
			if isTainted(r) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, b := range binds {
			if !f.tainted[b.param] && anyTainted(b.roots) {
				f.tainted[b.param] = true
				changed = true
			}
		}
		for _, a := range aliases {
			switch {
			case a.dst != nil:
				if !f.tainted[a.dst] && anyTainted(a.roots) {
					f.tainted[a.dst] = true
					changed = true
				}
			case a.base != nil && isTainted(a.base):
				for _, r := range a.roots {
					if !f.tainted[r] {
						f.tainted[r] = true
						changed = true
					}
				}
			}
		}
	}
}

// solveEntryHeld closes the per-function entry locksets over the call
// sites: entry(callee) ∪= held(site) ∪ entry(caller), except that a
// go-spawned function or literal starts with nothing held.
func (f *sgFacts) solveEntryHeld(calls []sgHeldCall) {
	goFns := make(map[any]bool)
	for _, r := range f.prog.Callgraph().roots {
		goFns[r.node] = true
	}
	for changed := true; changed; {
		changed = false
		for _, c := range calls {
			if goFns[c.callee] {
				// The spawn contributes nothing, and a function that is
				// ever spawned keeps an empty entry set even when also
				// called inline — the spawned execution is the one the
				// race analysis must survive.
				continue
			}
			dst := f.entryHeld[c.callee]
			if dst == nil {
				dst = make(map[*types.Var]bool)
				f.entryHeld[c.callee] = dst
			}
			add := func(v *types.Var) {
				if !dst[v] {
					dst[v] = true
					changed = true
				}
			}
			for v := range c.held {
				add(v)
			}
			for v := range f.entryHeld[c.caller] {
				add(v)
			}
		}
	}
}

// heldAt is an access's full may-held lockset: the local set plus the
// enclosing function's entry set.
func (f *sgFacts) heldAt(a *sgAccess) map[*types.Var]bool {
	entry := f.entryHeld[a.node]
	if len(entry) == 0 {
		return a.held
	}
	full := make(map[*types.Var]bool, len(a.held)+len(entry))
	for v := range a.held {
		full[v] = true
	}
	for v := range entry {
		full[v] = true
	}
	return full
}

// sharedAccesses filters a field's accesses down to the ones that can
// race: goroutine-reachable code, tainted base, not definitely before
// the base's publication.
func (f *sgFacts) sharedAccesses(field *types.Var) []*sgAccess {
	var out []*sgAccess
	for _, a := range f.accesses[field] {
		if _, ok := f.reach[a.node]; !ok {
			continue
		}
		if a.base == nil || (!f.tainted[a.base] && !sgIsGlobal(a.base)) {
			continue
		}
		if a.preEscape {
			continue
		}
		out = append(out, a)
	}
	return out
}

// exempt reports whether a field opts out of lock discipline: it is
// accessed through sync/atomic (atomicfuncs owns that API), has an
// intrinsically atomic type, is itself a synchronization primitive, or
// is a channel.
func (f *sgFacts) exempt(field *types.Var) bool {
	if f.atomicUse[field] {
		return true
	}
	t := field.Type()
	if isAtomicType(t, f.typeMemo) || isSyncType(t) {
		return true
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

// isSyncType reports whether t is (or points to) a type declared in
// package sync — a mutex, wait group, once, cond, pool or map is itself
// a synchronization point, not a field to guard.
func isSyncType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync"
}

// sgIsGlobal reports whether v is a package-level variable.
func sgIsGlobal(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// spawnSite renders the goroutine spawn that reaches node, for messages.
func (f *sgFacts) spawnSite(node any) string {
	pos, ok := f.reach[node]
	if !ok {
		return "a goroutine"
	}
	p := f.prog.position(pos)
	return fmt.Sprintf("the goroutine spawned at %s:%d", p.Filename, p.Line)
}

// lockName renders a lock variable for messages.
func lockName(v *types.Var) string {
	return fieldName(v)
}

// addressedField resolves an argument expression of the form &x.f to the
// field object f, or nil.
func addressedField(info *types.Info, arg ast.Expr) *types.Var {
	unary, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || unary.Op != token.AND {
		return nil
	}
	sel, ok := ast.Unparen(unary.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	field, _ := selection.Obj().(*types.Var)
	return field
}

// isAtomicType reports whether t is a sync/atomic type or a composite that
// contains one (recursively through named types, structs and arrays).
func isAtomicType(t types.Type, memo map[types.Type]bool) bool {
	if v, ok := memo[t]; ok {
		return v
	}
	memo[t] = false // cycle guard
	result := false
	switch u := t.(type) {
	case *types.Named:
		if pkg := u.Obj().Pkg(); pkg != nil && pkg.Path() == "sync/atomic" {
			result = true
		} else {
			result = isAtomicType(u.Underlying(), memo)
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if isAtomicType(u.Field(i).Type(), memo) {
				result = true
				break
			}
		}
	case *types.Array:
		result = isAtomicType(u.Elem(), memo)
	}
	memo[t] = result
	return result
}

// fieldName renders a field as Struct.field for messages.
func fieldName(f *types.Var) string {
	return fmt.Sprintf("%s.%s", ownerName(f), f.Name())
}

// ownerName finds the name of the struct type declaring field f, falling
// back to the package name.
func ownerName(f *types.Var) string {
	if pkg := f.Pkg(); pkg != nil {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == f {
					return tn.Name()
				}
			}
		}
		return pkg.Name()
	}
	return "?"
}
