package lint

import (
	"go/ast"
	"go/token"
)

// checkedArithScope: the packages that do exact time/area accounting.
// Times are int64 seconds and areas are nodes × seconds; a wraparound
// there yields a plausible negative value that corrupts metrics instead
// of crashing (the Window.overlap hang and the validateFailures
// repair-edge overflow are the canonical examples). The engine and the
// fault generators joined the scope when failure injection started doing
// At + Duration arithmetic on adversarial schedules. internal/profile
// joined when the tree kernel grew subtree aggregates: its end-time and
// area computations run against Infinity (= MaxInt64) deadline jobs, the
// exact inputs that wrap raw arithmetic. internal/queue joined with the
// pending-queue index: its maxE aggregate stores raw job estimates and
// its counters feed telemetry totals, both int64 domains where a wrap
// would silently misprune a scan. internal/sched joined once the
// jobschedd daemon fed it client input: start policies do now + estimate
// arithmetic on estimates the daemon accepts from clients (any positive
// value), and a wrapped sum reads as a job that ends before the shadow
// time, letting EASY backfill a job that runs forever ahead of its head.
// internal/serve joined when its session started driving the engine's
// sim.Cluster: it is where client-supplied int64s (estimate, runtime,
// deadline, advance target) enter the program, and its start, end and
// expiry instants cross into the simulator's time arithmetic.
var checkedArithScope = []string{
	"jobsched/internal/job",
	"jobsched/internal/objective",
	"jobsched/internal/sim",
	"jobsched/internal/faults",
	"jobsched/internal/profile",
	"jobsched/internal/queue",
	"jobsched/internal/sched",
	"jobsched/internal/serve",
}

// checkedArithHelpers are the saturating helpers in internal/job/arith.go
// whose bodies are the one place raw int64 arithmetic is expected.
var checkedArithHelpers = map[string]bool{
	"AddSat": true, "SubSat": true, "MulSat": true, "MulArea": true,
}

// CheckedArithAnalyzer returns the time-arithmetic overflow analyzer:
// inside the time-accounting packages, a non-constant int64 product, a
// sum of two non-constant int64 operands, or an int64 += is flagged
// unless it goes through the checked helpers (job.MulArea, job.AddSat,
// …) or carries a justification. Constant-folded expressions and
// var+constant sums are exempt: the compiler checks the former, and the
// latter cannot overflow for in-range simulation times by more than the
// constant, which the paper-scale invariants cover.
func CheckedArithAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "checkedarith",
		Doc:  "int64 time/area arithmetic must use the checked helpers in internal/job/arith.go",
	}
	a.Run = func(pass *Pass) {
		if !inScope(pass.Pkg.Path, checkedArithScope) {
			return
		}
		pass.Pkg.inspectWithStack(func(n ast.Node, stack []ast.Node) bool {
			if pass.Pkg.Path == "jobsched/internal/job" && checkedArithHelpers[enclosingFuncName(stack)] {
				return true // the helpers implement the raw arithmetic
			}
			switch n := n.(type) {
			case *ast.BinaryExpr:
				tv, ok := pass.Pkg.Info.Types[n]
				if !ok || !isInt64(tv.Type) || tv.Value != nil {
					return true // not int64, or constant-folded
				}
				if isDuration(tv.Type) {
					return true // CPU-timing bookkeeping, not simulation time
				}
				switch n.Op {
				case token.MUL:
					pass.Reportf(n.OpPos, "unchecked int64 multiplication %s: overflow wraps silently; use job.MulSat/job.MulArea or suppress with //lint:ignore checkedarith <reason>", exprSnippet(n))
				case token.ADD:
					if isConstOperand(pass.Pkg, n.X) || isConstOperand(pass.Pkg, n.Y) {
						return true
					}
					pass.Reportf(n.OpPos, "unchecked int64 addition %s: overflow wraps silently; use job.AddSat or suppress with //lint:ignore checkedarith <reason>", exprSnippet(n))
				}
			case *ast.AssignStmt:
				if n.Tok != token.ADD_ASSIGN || len(n.Lhs) != 1 {
					return true
				}
				tv, ok := pass.Pkg.Info.Types[n.Lhs[0]]
				if !ok || !isInt64(tv.Type) {
					return true
				}
				if isDuration(tv.Type) {
					return true // CPU-timing bookkeeping, not simulation time
				}
				pass.Reportf(n.TokPos, "unchecked int64 accumulation into %s: overflow wraps silently; use job.AddSat or suppress with //lint:ignore checkedarith <reason>", exprSnippet(n.Lhs[0]))
			}
			return true
		})
	}
	return a
}

func isConstOperand(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// exprSnippet renders a short description of the expression for the
// diagnostic message.
func exprSnippet(e ast.Expr) string {
	s := flattenExpr(e)
	if s != "" {
		return s
	}
	if b, ok := e.(*ast.BinaryExpr); ok {
		x, y := flattenExpr(b.X), flattenExpr(b.Y)
		if x == "" {
			x = "…"
		}
		if y == "" {
			y = "…"
		}
		return x + " " + b.Op.String() + " " + y
	}
	return "expression"
}
