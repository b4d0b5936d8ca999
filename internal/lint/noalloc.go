package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// NoAlloc verifies that functions annotated //mvlint:noalloc contain no
// heap-allocation sites, by running the compiler's escape analysis
// (`go build -gcflags='-m -m'`) over the packages that carry annotations and
// attributing every "escapes to heap" / "moved to heap" diagnostic to the
// annotated function whose body spans it.
//
// This turns the "allocs/op stays byte-identical" bench discipline of PRs
// 3–5 into a static gate that needs no benchmark run: the annotated hot
// paths (mv commit/begin, sv tx, visibility checks, skip-list traversal,
// reader-pin Acquire/Release, version pool Get/Put) cannot regrow an allocation
// without failing CI.
//
// Scope is the honest one for a static check: escape analysis attributes
// allocation *sites*, so the rule proves the annotated function introduces
// no allocations of its own (including closures it defines). It does not
// follow calls — a callee that allocates must carry its own annotation —
// and slice growth through append is a runtime event escape analysis cannot
// see (the hot paths pre-size and recycle their slices for exactly that
// reason; the benchmarks remain the transitive check).
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated //mvlint:noalloc have no heap-allocation sites (compiler escape analysis)",
	Run:  runNoAlloc,
}

// escapeLine matches one compiler diagnostic: file:line:col: message.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

type noallocFunc struct {
	name      string
	file      string // absolute path
	start     int    // first line of the declaration
	end       int    // last line of the body
	reportPos token.Position
}

func runNoAlloc(prog *Program, report Reporter) error {
	byDir := make(map[string][]noallocFunc)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasAnnotation(funcDoc(fd), "noalloc") {
					continue
				}
				if fd.Body == nil {
					report(prog.Position(fd.Pos()), "//mvlint:noalloc on a bodyless declaration has nothing to verify")
					continue
				}
				start := prog.Position(fd.Pos())
				end := prog.Position(fd.Body.Rbrace)
				abs, err := filepath.Abs(start.Filename)
				if err != nil {
					return err
				}
				byDir[pkg.Dir] = append(byDir[pkg.Dir], noallocFunc{
					name:      funcDisplayName(fd),
					file:      abs,
					start:     start.Line,
					end:       end.Line,
					reportPos: start,
				})
			}
		}
	}
	if len(byDir) == 0 {
		return nil
	}

	dirs := make([]string, 0, len(byDir))
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	args := []string{"build", "-gcflags=-m -m"}
	for _, d := range dirs {
		rel, err := filepath.Rel(prog.ModRoot, d)
		if err != nil {
			return err
		}
		args = append(args, "./"+filepath.ToSlash(rel))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = prog.ModRoot
	out, err := cmd.CombinedOutput()
	if err != nil && !looksLikeEscapeOutput(string(out)) {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}

	var funcs []noallocFunc
	for _, fs := range byDir {
		funcs = append(funcs, fs...)
	}

	seen := make(map[string]bool) // dedup: -m -m repeats each site with its explanation
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if strings.HasPrefix(msg, " ") { // indented explanation chain
			continue
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(prog.ModRoot, file)
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		key := fmt.Sprintf("%s:%d:%d", file, lineNo, colNo)
		if seen[key] {
			continue
		}
		for _, fn := range funcs {
			if fn.file == file && lineNo >= fn.start && lineNo <= fn.end {
				seen[key] = true
				report(token.Position{Filename: file, Line: lineNo, Column: colNo},
					"//mvlint:noalloc function %s allocates: %s", fn.name, strings.TrimSuffix(msg, ":"))
				break
			}
		}
	}
	return nil
}

// looksLikeEscapeOutput reports whether go build output consists solely of
// escape-analysis diagnostics (the command exits nonzero only on real
// compile errors, but be tolerant of diagnostic-only stderr).
func looksLikeEscapeOutput(out string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if escapeLine.MatchString(line) {
			continue
		}
		return false
	}
	return true
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		var b strings.Builder
		if star, ok := t.(*ast.StarExpr); ok {
			b.WriteString("*")
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			b.WriteString(id.Name)
		} else if ix, ok := t.(*ast.IndexExpr); ok {
			if id, ok := ix.X.(*ast.Ident); ok {
				b.WriteString(id.Name)
			}
		} else if ix, ok := t.(*ast.IndexListExpr); ok {
			if id, ok := ix.X.(*ast.Ident); ok {
				b.WriteString(id.Name)
			}
		}
		return "(" + b.String() + ")." + fd.Name.Name
	}
	return fd.Name.Name
}
