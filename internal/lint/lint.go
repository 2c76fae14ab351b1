// Package lint is a from-scratch static analyzer for this repository,
// built directly on the standard library's go/parser + go/ast + go/types
// stack (no golang.org/x/tools dependency). It loads every package of the
// module from source, builds a lightweight callgraph over the typed ASTs
// and enforces the engine's cross-cutting invariants:
//
//   - bufferdiscipline: code reachable from a goroutine must read pages
//     through BufferPool.View, never Get/Put — Get hands out the pooled
//     slice, which a concurrent eviction may reuse under the reader.
//   - atomicfuncs: no function-style sync/atomic calls (atomic.AddInt64
//     and kin) outside tests; shared counters and pointers use the typed
//     atomics, whose methods are the only way in (go vet's copylocks
//     catches a copied value).
//   - sqrtfree: the pruning and traversal hot paths compare squared
//     distances; math.Sqrt is reserved for the final result-reporting
//     functions (MINMINDIST <= MINMAXDIST <= MAXMAXDIST ordering is
//     preserved by squaring, so comparisons never need the root).
//   - errprop: errors returned by the storage and R-tree I/O layers must
//     not be discarded with `_ =` or a bare call.
//   - obshooks: tracer and metric emissions in the hot-path packages must
//     sit behind an explicit nil guard (a leading `if x == nil { return }`
//     helper or an enclosing `if x != nil` block), keeping the disabled
//     observability path at zero cost.
//
// Four further checks are path-sensitive: they run over the SSA-lite IR
// of package repro/internal/lint/ssa (basic blocks, dominators, reaching
// definitions) instead of matching syntax:
//
//   - pinleak: a storage handle must be released on every control-flow
//     path out of the acquiring function, or demonstrably change owner.
//   - lockorder: the static lock-ordering graph over the engine's
//     mutexes must be acyclic, and no two instances of one shard lock
//     may be held at once.
//   - boundmono: the parallel engine's shared pruning bound is written
//     only through its CAS-min helper; a raw store or whole-value
//     overwrite can widen the bound and lose results.
//   - deferinloop: a deferred Close/Put inside a loop releases nothing
//     until function return and so pins the whole traversal's resources.
//
// The ctxflow pass (three checks sharing interprocedural summaries over
// the callgraph; DESIGN.md §11) guards the cancellation contract:
//
//   - ctxprop: query entry points and join drivers must accept a
//     context.Context and thread it through — context.Background() is
//     allowed only in the recognized *Context delegating shims.
//   - cancelpoll: every potentially unbounded driver loop (frontier
//     expansion, heap pops, storage I/O) must poll the context on some
//     path, directly or via a summarized cancellation point such as the
//     stride-gated cancelGate.poll; gates coarser than the allowance are
//     flagged.
//   - ctxleak: a spawned goroutine must select on ctx.Done() or be
//     joined by its spawner, so cancelled queries leak nothing.
//
// The shareguard pass (three checks sharing an escape analysis, a taint
// fixpoint over the callgraph and per-block locksets; DESIGN.md §12)
// guards the sharing discipline the race detector can only spot-check:
//
//   - sharedfield: a struct field written from goroutine-reachable code
//     through shared state with no lock held at any access, no
//     sync/atomic discipline and no annotation is a data race waiting
//     for a schedule.
//   - guardlock: where locking evidence exists it must cover — every
//     access to a //lint:guardedby-annotated field holds the declared
//     mutex, and an unannotated field's locksets must share at least one
//     lock across all shared accesses.
//   - pubimmut: a field write after its value was published to another
//     goroutine needs synchronization; constructor writes before the
//     publishing go statement, send or global store are exempt.
//
// A finding can be suppressed by the line comment
//
//	//lint:ignore <check> <reason>
//
// on the offending line or the line directly above the statement the
// finding points into (for a multi-line statement the directive sits
// above the first line); the reason is mandatory. Diagnostics print as
// "file:line: [check] message" and the
// cpqlint command exits non-zero when any survive, which is how ci.sh
// turns these conventions into build failures.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding of one check.
type Diagnostic struct {
	// Pos locates the finding; the file name is relative to the module
	// root.
	Pos token.Position
	// Check is the name of the check that produced the finding (or
	// "lint" for problems with suppression directives themselves).
	Check string
	// Message describes the violation.
	Message string
}

// String formats the diagnostic as "file:line: [check] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Check is one analysis run over a loaded program.
type Check interface {
	// Name is the identifier used in diagnostics and ignore directives.
	Name() string
	// Run analyzes prog.Packages and returns its findings.
	Run(prog *Program) []Diagnostic
}

// Checks returns the repository's check suite with its production
// configuration.
func Checks() []Check {
	return []Check{
		NewBufferDiscipline(),
		NewAtomicFuncs(),
		NewSqrtFree(),
		NewErrProp(),
		NewPinLeak(),
		NewLockOrder(),
		NewBoundMono(),
		NewDeferInLoop(),
		NewObsHooks(),
		NewCtxProp(),
		NewCancelPoll(),
		NewCtxLeak(),
		NewSharedField(),
		NewGuardLock(),
		NewPubImmut(),
	}
}

// CheckGroups maps group aliases to the check names they expand to; the
// cpqlint -checks flag accepts a group name wherever it accepts a check
// name. "ctxflow" is the cancellation-correctness pass of DESIGN.md §11;
// "shareguard" is the static data-race pass of DESIGN.md §12.
func CheckGroups() map[string][]string {
	return map[string][]string{
		"ctxflow":    {"ctxprop", "cancelpoll", "ctxleak"},
		"shareguard": {"sharedfield", "guardlock", "pubimmut"},
	}
}

// GroupOf maps each check name to its group alias ("" for ungrouped
// checks); the cpqlint JSON output attaches it to every finding.
func GroupOf(check string) string {
	for group, names := range CheckGroups() {
		for _, n := range names {
			if n == check {
				return group
			}
		}
	}
	return ""
}

// CheckTiming is the wall-clock cost of one check during a
// RunWithTimings pass.
type CheckTiming struct {
	// Name is the check's name.
	Name string
	// Elapsed is the check's own Run time (loading and suppression
	// filtering are shared and not attributed).
	Elapsed time.Duration
}

// Run executes the checks over prog, applies //lint:ignore suppressions
// and returns the surviving diagnostics sorted by position.
func Run(prog *Program, checks []Check) []Diagnostic {
	diags, _ := RunWithTimings(prog, checks)
	return diags
}

// RunWithTimings is Run plus a per-check wall-clock breakdown, for the
// cpqlint -timing flag and the lint benchmark.
func RunWithTimings(prog *Program, checks []Check) ([]Diagnostic, []CheckTiming) {
	diags, _, timings := RunAll(prog, checks)
	return diags, timings
}

// RunAll executes the checks over prog and returns the surviving
// diagnostics, the number of findings dropped by //lint:ignore
// directives (for the JSON output's suppressed count), and the per-check
// wall-clock breakdown. The typed load, the callgraph and the
// per-function IR are memoized on prog, so the first check that needs a
// shared artifact pays for it and the rest ride along — the timings show
// exactly that.
func RunAll(prog *Program, checks []Check) ([]Diagnostic, int, []CheckTiming) {
	var diags []Diagnostic
	timings := make([]CheckTiming, 0, len(checks))
	for _, c := range checks {
		start := time.Now()
		diags = append(diags, c.Run(prog)...)
		timings = append(timings, CheckTiming{Name: c.Name(), Elapsed: time.Since(start)})
	}
	// A directive may name any check of the full registry, not only the
	// selected subset — running `-checks ctxflow` must not turn every
	// sqrtfree suppression in the tree into an "unknown check" finding.
	known := make(map[string]bool, len(checks))
	for _, c := range checks {
		known[c.Name()] = true
	}
	for _, c := range Checks() {
		known[c.Name()] = true
	}
	diags, suppressed := applyIgnores(prog, known, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags, suppressed, timings
}

// ignoreKey identifies the scope of one suppression directive: a check
// name on one line of one file (the directive covers its own line and the
// line below).
type ignoreKey struct {
	file  string
	line  int
	check string
}

// applyIgnores drops diagnostics covered by well-formed //lint:ignore
// directives (returning how many were dropped) and reports malformed or
// unknown-check directives as findings of the built-in "lint"
// pseudo-check.
func applyIgnores(prog *Program, known map[string]bool, diags []Diagnostic) ([]Diagnostic, int) {
	ignores := make(map[ignoreKey]bool)
	var problems []Diagnostic
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := prog.position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						problems = append(problems, Diagnostic{
							Pos:     pos,
							Check:   "lint",
							Message: `malformed directive: want "//lint:ignore <check> <reason>"`,
						})
						continue
					}
					check := fields[0]
					if !known[check] {
						problems = append(problems, Diagnostic{
							Pos:     pos,
							Check:   "lint",
							Message: fmt.Sprintf("ignore directive names unknown check %q", check),
						})
						continue
					}
					ignores[ignoreKey{pos.Filename, pos.Line, check}] = true
				}
			}
		}
	}
	starts := stmtStartLines(prog)
	kept := problems
	suppressed := 0
	for _, d := range diags {
		if ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Check}] ||
			ignores[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, d.Check}] {
			suppressed++
			continue
		}
		// A finding inside a multi-line statement is also covered by a
		// directive on the line above the statement's first line — the
		// only place gofmt lets a comment live for a wrapped call.
		if s, ok := starts[lineKey{d.Pos.Filename, d.Pos.Line}]; ok &&
			(ignores[ignoreKey{d.Pos.Filename, s, d.Check}] ||
				ignores[ignoreKey{d.Pos.Filename, s - 1, d.Check}]) {
			suppressed++
			continue
		}
		kept = append(kept, d)
	}
	return kept, suppressed
}

// lineKey addresses one source line of one file.
type lineKey struct {
	file string
	line int
}

// stmtStartLines maps every line spanned by a multi-line simple statement
// to the statement's first line. Only simple statements participate:
// extending a directive above a compound statement (for, if, ...) to its
// whole body would suppress far more than the author aimed at.
func stmtStartLines(prog *Program) map[lineKey]int {
	starts := make(map[lineKey]int)
	for _, pkg := range prog.Packages {
		walkFiles(pkg, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.AssignStmt, *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt,
				*ast.ReturnStmt, *ast.DeclStmt, *ast.SendStmt, *ast.IncDecStmt:
			default:
				return true
			}
			from := prog.position(n.Pos())
			to := prog.position(n.End())
			for l := from.Line + 1; l <= to.Line; l++ {
				starts[lineKey{from.Filename, l}] = from.Line
			}
			return true
		})
	}
	return starts
}

// pathInScope reports whether an import path falls under any of the scope
// fragments (substring match on the slash-separated path, so
// "internal/core" covers both the real package and nested fixtures).
func pathInScope(path string, scopes []string) bool {
	for _, s := range scopes {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

// walkFiles applies fn to every node of every file of pkg.
func walkFiles(pkg *Package, fn func(n ast.Node) bool) {
	for _, file := range pkg.Files {
		ast.Inspect(file, fn)
	}
}
