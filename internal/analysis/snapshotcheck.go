package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SnapshotCheck flags writes to published snapshot state outside
// internal/core. A core.Trace snapshot is immutable by contract: live
// ingest shares its event arrays copy-on-write with the builder, and
// every consumer (render, metrics, query, ui, anomaly, export) may
// hold the same *Trace concurrently. A write through a snapshot type —
// a field store, a slice-element store, a map store or an append
// reassignment rooted in Trace, CPUData, Counter or TaskInfo — is a
// data race against the live writer and corrupts every other reader's
// view; TestStreamEqualsBatch only catches it probabilistically. The
// builder side lives entirely in internal/core, which is exempt: its
// files are the one place allowed to construct and mutate
// trace state before publication.
//
// The check is syntactic over the assignment's left-hand chain: it
// catches writes whose path visibly traverses a snapshot-typed value
// (tr.Span.Start = 0, tr.CPUs[i].States.Rows[j].End = t,
// c.PerCPU[cpu].Rows = append(...)). Aliasing through a local slice
// variable first (s := tr.CPUs[0].States.Rows; s[0] = x) is out of reach
// of a per-expression rule — the fixture documents the limitation.
var SnapshotCheck = &Analyzer{
	Name: "snapshotcheck",
	Doc:  "no writes through core snapshot types (Trace, CPUData, Counter, TaskInfo) outside internal/core",
	Applies: func(pkgPath string) bool {
		return !strings.HasSuffix(pkgPath, "internal/core")
	},
	Run: runSnapshotCheck,
}

// snapshotTypeNames are the core types whose reachable state is
// publication-immutable. Interval is deliberately absent: it is a
// small value type passed around by copy, and writing a local copy's
// field mutates nothing shared.
var snapshotTypeNames = map[string]bool{
	"Trace":    true,
	"CPUData":  true,
	"Counter":  true,
	"TaskInfo": true,
}

func runSnapshotCheck(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					checkSnapshotWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkSnapshotWrite(pass, x.X)
			case *ast.CallExpr:
				// delete(m, k) where m hangs off a snapshot.
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "delete" && len(x.Args) == 2 {
					if root := snapshotInChain(pass, x.Args[0]); root != "" {
						pass.Reportf(x.Pos(), "delete on a map reachable from core.%s: published snapshots are immutable and shared copy-on-write", root)
					}
				}
			}
			return true
		})
	}
}

// checkSnapshotWrite reports lhs if it stores through a snapshot type.
// A bare identifier is a rebinding (tr = other), not a mutation, so
// only selector/index/star targets count — and only when a strict
// sub-expression of the target chain is snapshot-typed.
func checkSnapshotWrite(pass *Pass, lhs ast.Expr) {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	inner := chainBase(lhs)
	if root := snapshotInChain(pass, inner); root != "" {
		pass.Reportf(lhs.Pos(), "write through core.%s: published snapshots are immutable and shared copy-on-write with the live builder", root)
	}
}

// chainBase returns the expression the assignment target dereferences:
// for `a.b[i].c = v` it returns `a.b[i]` — the chain below the final
// selector/index — so the stored-into object itself is inspected, not
// just the full target.
func chainBase(lhs ast.Expr) ast.Expr {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return x.X
	case *ast.IndexExpr:
		return x.X
	case *ast.StarExpr:
		return x.X
	}
	return lhs
}

// snapshotInChain walks the selector/index/deref chain of e and
// returns the name of the first snapshot type found along it ("" if
// none).
func snapshotInChain(pass *Pass, e ast.Expr) string {
	for {
		e = ast.Unparen(e)
		if name := snapshotTypeName(pass.TypeOf(e)); name != "" {
			return name
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			// Accessor results: tr.CounterByName(...) returns *Counter;
			// the result's type was already checked above, but the call
			// itself ends the traversal (its receiver is read-only use).
			return ""
		default:
			return ""
		}
	}
}

// snapshotTypeName returns the snapshot type's name if t (possibly a
// pointer to it) is one of internal/core's snapshot types.
func snapshotTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/core") {
		return ""
	}
	if !snapshotTypeNames[obj.Name()] {
		return ""
	}
	return obj.Name()
}
