package lint

import (
	"go/ast"
	"go/types"
)

// PadCheck verifies the layout claims of cache-line-padded structs: a type
// annotated //mvlint:padded must have a total size that is a multiple of 64
// bytes (so array elements and pool neighbours cannot share a line), every
// field annotated //mvlint:cacheline must start 64-byte aligned and no two
// such fields may land on the same 64-byte line, and every 64-bit atomic
// field must be 8-byte aligned (the sync/atomic alignment contract on
// 32-bit targets).
//
// These are the prose claims of gc/pins.go ("padded to a cache line so
// neighbouring pins don't false-share") and txn/table.go ("the 64 shard
// minima don't false-share when OldestBegin sweeps them"), checked against
// go/types' real field offsets for the compilation target. A refactor that
// inserts a field and silently shifts the padding now fails the build
// instead of quietly costing a cache line.
//
// Caveat: Go's allocator guarantees 8/16-byte alignment, not 64 — the
// checks enforce the *relative* separation of hot words, which is what the
// false-sharing arguments rely on (two words >= 64 bytes apart never share
// a line regardless of the object's base address).
var PadCheck = &Analyzer{
	Name: "padcheck",
	Doc:  "//mvlint:padded structs are 64-byte multiples with //mvlint:cacheline fields on distinct lines and 8-aligned atomics",
	Run:  runPadCheck,
}

func runPadCheck(prog *Program, report Reporter) error {
	for _, pkg := range prog.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					stAST, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					groups := []*ast.CommentGroup{ts.Doc, ts.Comment}
					if len(gd.Specs) == 1 {
						groups = append(groups, gd.Doc)
					}
					if !hasAnnotation(groups, "padded") {
						continue
					}
					checkPadded(prog, pkg, ts, stAST, report)
				}
			}
		}
	}
	return nil
}

func checkPadded(prog *Program, pkg *Package, ts *ast.TypeSpec, stAST *ast.StructType, report Reporter) {
	obj := pkg.Info.Defs[ts.Name]
	if obj == nil {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}

	size := prog.Sizes.Sizeof(st)
	if size%64 != 0 {
		report(prog.Position(ts.Pos()),
			"//mvlint:padded struct %s is %d bytes — not a multiple of 64, so neighbouring elements share a cache line (pad with _ [%d]byte)",
			ts.Name.Name, size, 64-size%64)
	}

	fields := make([]*types.Var, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i)
	}
	offsets := prog.Sizes.Offsetsof(fields)

	// Pair AST fields (which carry the annotations) with type-checker
	// fields by flattened name order; the struct's AST and type fields are
	// in declaration order.
	type lineField struct {
		name string
		off  int64
		pos  ast.Node
	}
	var marked []lineField
	idx := 0
	for _, af := range stAST.Fields.List {
		n := max(len(af.Names), 1)
		annotated := hasAnnotation([]*ast.CommentGroup{af.Doc, af.Comment}, "cacheline")
		for j := 0; j < n && idx < len(fields); j++ {
			if annotated {
				marked = append(marked, lineField{fields[idx].Name(), offsets[idx], af})
			}
			if atomic64Field(fields[idx].Type()) && offsets[idx]%8 != 0 {
				report(prog.Position(af.Pos()),
					"64-bit atomic field %s.%s at offset %d is not 8-byte aligned",
					ts.Name.Name, fields[idx].Name(), offsets[idx])
			}
			idx++
		}
	}

	for i, fl := range marked {
		if fl.off%64 != 0 {
			report(prog.Position(fl.pos.Pos()),
				"//mvlint:cacheline field %s.%s starts at offset %d — not 64-byte aligned, its line is shared with the preceding fields",
				ts.Name.Name, fl.name, fl.off)
		}
		for _, prev := range marked[:i] {
			if prev.off/64 == fl.off/64 {
				report(prog.Position(fl.pos.Pos()),
					"//mvlint:cacheline fields %s.%s (offset %d) and %s.%s (offset %d) share one 64-byte line",
					ts.Name.Name, prev.name, prev.off, ts.Name.Name, fl.name, fl.off)
			}
		}
	}
}

// atomic64Field reports whether t is a 64-bit word the sync/atomic
// alignment contract applies to.
func atomic64Field(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			switch obj.Name() {
			case "Int64", "Uint64":
				return true
			}
		}
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch b.Kind() {
		case types.Int64, types.Uint64, types.Float64:
			return true
		}
	}
	return false
}
