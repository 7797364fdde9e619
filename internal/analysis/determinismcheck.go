package analysis

import (
	"go/ast"
	"go/types"
)

// DeterminismCheck forbids nondeterminism sources in the golden-tested
// output paths: the timeline renderer (byte-identical framebuffer
// goldens), the exporters (CSV golden files), the anomaly
// engine (rankings asserted stable across runs and worker counts) and
// the span importer's inference path (the inferred topology, call-style
// votes and statistics are pinned by golden tests — a map iteration in
// the voting would make two imports of the same file disagree).
// Three sources have bitten or nearly bitten those tests:
//
//   - time.Now / time.Since / time.Until: wall-clock values in output
//     make goldens unreproducible;
//   - math/rand (and math/rand/v2) package-level functions: the global
//     source is seeded randomly per process — a deterministic path may
//     use a *rand.Rand built from an explicit seed, so constructors
//     (New, NewSource, NewPCG, NewChaCha8, NewZipf) and methods on the
//     seeded generator are allowed;
//   - ranging over a map where iteration order feeds output: Go
//     randomizes map order per iteration. Iterate a sorted key slice
//     instead, or suppress with a reason when the loop provably
//     reduces order-insensitively (a sum, a max).
var DeterminismCheck = &Analyzer{
	Name: "determinismcheck",
	Doc:  "no time.Now, unseeded math/rand, or raw map iteration in golden-tested render/export/anomaly/import paths",
	Applies: pathIn(
		"internal/render",
		"internal/export",
		"internal/anomaly",
		"internal/ingest/otlp",
	),
	Run: runDeterminismCheck,
}

// randConstructors are the math/rand package-level functions that
// build an explicitly seeded generator rather than consuming the
// global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminismCheck(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				pkg, name := calleePkgFunc(pass, x)
				switch pkg {
				case "time":
					if name == "Now" || name == "Since" || name == "Until" {
						pass.Reportf(x.Pos(), "time.%s in a golden-tested path makes output unreproducible; thread an explicit timestamp in", name)
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[name] {
						pass.Reportf(x.Pos(), "%s.%s uses the process-global random source; build a *rand.Rand from an explicit seed", pkg, name)
					}
				}
			case *ast.RangeStmt:
				if isMapType(pass.TypeOf(x.X)) {
					pass.Reportf(x.Pos(), "map iteration order is randomized per run; iterate a sorted key slice in this golden-tested path")
				}
			}
			return true
		})
	}
}

// calleePkgFunc resolves a call to a package-level function and
// returns its package path and name ("", "" for methods, locals,
// builtins and conversions).
func calleePkgFunc(pass *Pass, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "", "" // method: rand.Rand methods are the sanctioned form
	}
	return fn.Pkg().Path(), fn.Name()
}

// isMapType reports whether t (possibly behind a pointer) is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
