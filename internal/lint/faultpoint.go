package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
)

// FaultPoint verifies that every fault-point name reaching the wal.Faults
// registry — the Arm/Disarm sites in crash harnesses and the Fire sites
// inside the durability code — is declared in the single central
// //mvlint:faultregistry const block (wal/faults.go).
//
// The crash suites (every fault injected through wal.FaultFile and the
// checkpoint store) only prove anything when the armed point and the firing
// point agree on a string: a typo'd name arms a fault that never fires, and the
// scenario silently degenerates to a no-crash run that still passes. With
// this rule, a name outside the registry cannot reach the registry's API.
//
// Non-test files are checked with full type information (any constant
// expression is resolved to its value, so aliases like
// ckpt.FaultManifest = wal.FaultCkptManifest pass). Test files are scanned
// syntactically — string literals passed to .Arm/.Fire/.Disarm must be
// registry values verbatim. Dynamically computed names (a string flowing
// through a struct field) are out of the rule's reach and are not flagged;
// the construction site's own constant is.
var FaultPoint = &Analyzer{
	Name: "faultpoint",
	Doc:  "every fault-point name passed to wal.Faults Arm/Fire/Disarm is declared in the central fault registry",
	Run:  runFaultPoint,
}

func runFaultPoint(prog *Program, report Reporter) error {
	registry := make(map[string]bool)
	var blocks []token.Position

	for _, pkg := range prog.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST || !hasAnnotation([]*ast.CommentGroup{gd.Doc}, "faultregistry") {
					continue
				}
				blocks = append(blocks, prog.Position(gd.Pos()))
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						c, ok := pkg.Info.Defs[name].(*types.Const)
						if !ok || c.Val().Kind() != constant.String {
							report(prog.Position(name.Pos()),
								"fault registry entry %s is not a string constant", name.Name)
							continue
						}
						registry[constant.StringVal(c.Val())] = true
					}
				}
			}
		}
	}
	for _, pos := range blocks[min(1, len(blocks)):] {
		report(pos, "multiple //mvlint:faultregistry const blocks; the registry must be one central block (first seen at %s)", blocks[0])
	}

	for _, pkg := range prog.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if !isMethodOn(fn, []string{"Arm", "Disarm", "Fire"}, "Faults", "internal/wal") {
					return true
				}
				arg := call.Args[0]
				tv := pkg.Info.Types[arg]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					return true // dynamic name: checked at its constant's origin
				}
				val := constant.StringVal(tv.Value)
				if len(blocks) == 0 {
					report(prog.Position(arg.Pos()),
						"fault point %q used but no //mvlint:faultregistry const block was found in the analyzed packages", val)
					return true
				}
				if !registry[val] {
					report(prog.Position(arg.Pos()),
						"fault point %q is not declared in the fault registry — a typo'd point arms a fault that never fires and the crash scenario silently passes", val)
				}
				return true
			})
		}

		// Test files: syntactic scan. A string literal passed to a method
		// named Arm/Fire/Disarm must be a registry value verbatim.
		for _, f := range pkg.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Arm", "Disarm", "Fire":
				default:
					return true
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				val, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				if len(blocks) > 0 && !registry[val] {
					report(prog.Position(lit.Pos()),
						"fault point literal %q is not declared in the fault registry — use the registry constant so a typo cannot arm a fault that never fires", val)
				}
				return true
			})
		}
	}
	return nil
}
