package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// TmathCheck flags raw int64 arithmetic on trace timestamps in the
// pixel<->time mapping packages and the analyses that cut a span into
// windows or read it whole (anomaly, taskgraph). Trace times are CPU cycle counts that
// reach the upper half of int64 (trace.Time is an alias of int64, so
// the type system cannot carry the distinction — naming does), and two
// whole PRs fixed overflows of exactly this shape: span*x in the
// pixel mapping, and t+span/2 in window navigation. The rule:
//
//   - `a * b` where either operand is a timestamp or span: the 64-bit
//     product overflows long before the operands do — use
//     tmath.MulDiv, which keeps the intermediate in 128 bits.
//   - `a + b` / `a - b` where exactly one operand is a timestamp: a
//     timestamp near MaxInt64 plus any offset wraps — use
//     tmath.SatAdd / tmath.SatSub.
//
// Deliberately allowed, because they cannot overflow for valid
// (ordered, non-negative) timestamps:
//
//   - `end - start` with both operands timestamps (the span idiom);
//   - `start + tmath.MulDiv(...)` / `start + tmath.Sat*(...)`:
//     MulDiv's contract bounds its quotient by the window span, so the
//     sum stays within [start, end];
//   - constant-only expressions, and operands that are not int64 (an
//     `int` pixel loop counter named t is not a timestamp).
var TmathCheck = &Analyzer{
	Name: "tmathcheck",
	Doc:  "raw */+/- on trace timestamps must route through tmath (MulDiv, SatAdd, SatSub)",
	Applies: pathIn(
		"internal/render",
		"internal/query",
		"internal/ui",
		"internal/metrics",
		"internal/anomaly",
		"internal/taskgraph",
	),
	Run: runTmathCheck,
}

// timeNames marks identifiers that carry a trace timestamp.
var timeNames = regexp.MustCompile(`^(t|ts|t0|t1|w0|w1|s|e|at|from|until|to|start|end|tstart|tend|tmin|tmax|first|last|deadline|when|heatMin|heatMax)$|(Start|End|Time|Created|Timestamp)$`)

// spanNames marks identifiers that carry a duration/span — dangerous
// in products (span*x is the classic overflow) but fine in sums with
// other spans.
var spanNames = regexp.MustCompile(`^(span|dur|duration|elapsed|quarter|half|step)$|(Span|Duration)$`)

func runTmathCheck(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch be.Op {
			case token.MUL, token.ADD, token.SUB:
			default:
				return true
			}
			// Constant folding: expressions the compiler evaluates
			// cannot overflow silently (constant overflow is a compile
			// error).
			if isConst(pass, be.X) && isConst(pass, be.Y) {
				return true
			}
			// Floating-point arithmetic saturates to +-Inf instead of
			// wrapping; converting to float64 before subtracting is a
			// sanctioned fix for unbounded parameter arithmetic.
			if !isIntegerType(pass.TypeOf(be)) {
				return true
			}
			xTime := isTimeMarked(pass, be.X, timeNames)
			yTime := isTimeMarked(pass, be.Y, timeNames)
			switch be.Op {
			case token.MUL:
				xSpan := isTimeMarked(pass, be.X, spanNames) || isTimeDiff(pass, be.X)
				ySpan := isTimeMarked(pass, be.Y, spanNames) || isTimeDiff(pass, be.Y)
				if xTime || yTime || xSpan || ySpan {
					pass.Reportf(be.OpPos, "raw multiplication on a trace timestamp or span overflows int64 at extreme coordinates; use tmath.MulDiv")
				}
			case token.ADD, token.SUB:
				if xTime && yTime {
					// end - start (the span idiom) cannot overflow for
					// valid timestamps; t0 + t1 is meaningless but
					// equally bounded. Allowed.
					return true
				}
				if !xTime && !yTime {
					return true
				}
				// start + tmath.MulDiv(...) and friends: the tmath
				// layer's contracts bound the result to the window.
				if isTmathCall(be.X) || isTmathCall(be.Y) {
					return true
				}
				verb := "tmath.SatAdd"
				if be.Op == token.SUB {
					verb = "tmath.SatSub"
				}
				pass.Reportf(be.OpPos, "raw %s on a trace timestamp wraps at extreme coordinates; use %s", be.Op, verb)
			}
			return true
		})
	}
}

// isTimeDiff reports whether e is itself a subtraction involving a
// timestamp — a span in expression form, e.g. (t.ExecStart -
// tr.Span.Start). A product of such a difference with a count is the
// original PR 5 overflow shape, so it must be marked for the MUL rule
// even though the difference itself is the allowed span idiom.
func isTimeDiff(pass *Pass, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.SUB, token.ADD:
	default:
		return false
	}
	return isTimeMarked(pass, be.X, timeNames) || isTimeMarked(pass, be.Y, timeNames) ||
		isTimeDiff(pass, be.X) || isTimeDiff(pass, be.Y)
}

// isConst reports whether e is a compile-time constant.
func isConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}

// isTimeMarked reports whether e is an int64-typed value whose
// identifier or selector name matches the marker set. Parens, unary
// +/- and single-argument conversions are looked through, so
// int64(q.t0) and (start) stay marked.
func isTimeMarked(pass *Pass, e ast.Expr, marks *regexp.Regexp) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		return isTimeMarked(pass, x.X, marks)
	case *ast.CallExpr:
		// Conversions only: int64(x), trace.Time(x).
		if len(x.Args) == 1 {
			if tv, ok := pass.Info.Types[x.Fun]; ok && tv.IsType() {
				return isTimeMarked(pass, x.Args[0], marks)
			}
		}
		return false
	case *ast.Ident:
		if obj, ok := pass.Info.Uses[x]; ok {
			if _, isVar := obj.(*types.Var); !isVar {
				return false
			}
		}
		return marks.MatchString(x.Name) && isInt64(pass.TypeOf(e))
	case *ast.SelectorExpr:
		return marks.MatchString(x.Sel.Name) && isInt64(pass.TypeOf(e))
	}
	return false
}

// isIntegerType reports whether t is any integer type.
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isInt64 reports whether t's core type is exactly int64 — trace.Time
// is an alias of int64, so every timestamp satisfies this, while int
// pixel coordinates and loop counters do not.
func isInt64(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int64
}

// isTmathCall reports whether e is a direct call through the tmath
// package (tmath.MulDiv, tmath.SatAdd, tmath.SatSub).
func isTmathCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "tmath"
}
