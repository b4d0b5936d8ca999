// Package lint is mvlint's analysis driver: a stdlib-only static-analysis
// suite that turns this repository's load-bearing prose invariants — the
// ordering comments in mv.Commit, sv.CommitTS, the skip-list sweeper — into
// machine-checked rules. The tree is loaded with go/parser and type-checked
// with go/types over importer.ForCompiler(..., "source", ...); there are no
// dependencies outside the standard library.
//
// Each Analyzer encodes one repo invariant (see docs/lint.md for the
// catalogue and the prose each rule mechanizes). Diagnostics are suppressed
// only by an explicit
//
//	//mvlint:ignore <analyzer> <reason>
//
// comment on the diagnostic's line or the line directly above; the reason is
// mandatory, and every suppression in force is listed in the summary output
// so reviews can diff the waiver set.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Diagnostic is one finding: a rule violation at a position. Suppressed
// diagnostics are retained (with the waiver's reason) so the summary can
// list them; they do not fail the run.
type Diagnostic struct {
	Analyzer   string         `json:"analyzer"`
	Pos        token.Position `json:"pos"`
	Message    string         `json:"message"`
	Suppressed bool           `json:"suppressed,omitempty"`
	Reason     string         `json:"reason,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Reporter records one diagnostic for the analyzer that owns it.
type Reporter func(pos token.Position, format string, args ...any)

// An Analyzer is one repo-invariant rule. Run inspects the whole Program —
// most rules iterate prog.Pkgs, but cross-package rules (the fault-point
// registry) and rules that shell out (noalloc's escape-analysis pass) need
// the program-level view.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, report Reporter) error
}

// Analyzers is the mvlint suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockedOracle,
		NoAlloc,
		FaultPoint,
		ErrLatch,
		PadCheck,
	}
}

// ignoreEntry is one parsed //mvlint:ignore comment.
type ignoreEntry struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// Result is the outcome of a Run: every diagnostic (suppressed ones
// included) plus per-analyzer totals.
type Result struct {
	Diagnostics []Diagnostic
}

// Failed reports whether any unsuppressed diagnostic was produced.
func (r *Result) Failed() bool {
	for _, d := range r.Diagnostics {
		if !d.Suppressed {
			return true
		}
	}
	return false
}

// Counts returns per-analyzer (active, suppressed) diagnostic totals.
func (r *Result) Counts() map[string][2]int {
	m := make(map[string][2]int)
	for _, d := range r.Diagnostics {
		c := m[d.Analyzer]
		if d.Suppressed {
			c[1]++
		} else {
			c[0]++
		}
		m[d.Analyzer] = c
	}
	return m
}

// Suppressions returns the suppressed diagnostics, in position order.
func (r *Result) Suppressions() []Diagnostic {
	var s []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Suppressed {
			s = append(s, d)
		}
	}
	return s
}

// Run executes the analyzers over prog, applies //mvlint:ignore waivers, and
// returns every diagnostic sorted by position. Malformed waivers (missing
// analyzer name or reason) and waivers that suppress nothing are themselves
// diagnostics, under the pseudo-analyzer "ignore": a stale suppression is a
// rule quietly not being enforced, which is exactly what mvlint exists to
// prevent.
func Run(prog *Program, analyzers []*Analyzer) (*Result, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		name := a.Name
		report := func(pos token.Position, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Analyzer: name,
				Pos:      pos,
				Message:  fmt.Sprintf(format, args...),
			})
		}
		if err := a.Run(prog, report); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}

	// Surface type-check failures: analyses over a broken package are
	// unreliable, so a package that does not type-check fails the run.
	for _, pkg := range prog.Pkgs {
		for _, err := range pkg.TypeErrors {
			diags = append(diags, Diagnostic{
				Analyzer: "typecheck",
				Pos:      errPosition(prog, err),
				Message:  err.Error(),
			})
		}
	}

	ignores := collectIgnores(prog, &diags)
	for i := range diags {
		d := &diags[i]
		if d.Analyzer == "ignore" || d.Analyzer == "typecheck" {
			continue
		}
		if e := matchIgnore(ignores, d); e != nil {
			d.Suppressed = true
			d.Reason = e.reason
			e.used = true
		}
	}
	for _, byLine := range ignores {
		for _, e := range byLine {
			if !e.used {
				diags = append(diags, Diagnostic{
					Analyzer: "ignore",
					Pos:      e.pos,
					Message: fmt.Sprintf("suppression for %q matches no diagnostic; remove it (a stale waiver is a rule quietly not enforced)",
						e.analyzer),
				})
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return &Result{Diagnostics: diags}, nil
}

// errPosition extracts a position from a go/types error when possible.
func errPosition(prog *Program, err error) token.Position {
	type positioned interface{ Pos() token.Pos }
	if pe, ok := err.(positioned); ok {
		return prog.Fset.Position(pe.Pos())
	}
	return token.Position{}
}

// collectIgnores parses every //mvlint:ignore comment in the program
// (including test files, which syntactic passes may report on). Malformed
// entries become "ignore" diagnostics.
func collectIgnores(prog *Program, diags *[]Diagnostic) map[string]map[int]*ignoreEntry {
	out := make(map[string]map[int]*ignoreEntry)
	add := func(f *ast.File) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//mvlint:ignore")
				if !ok {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Analyzer: "ignore",
						Pos:      pos,
						Message:  "malformed suppression: want //mvlint:ignore <analyzer> <reason>, and the reason is mandatory",
					})
					continue
				}
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*ignoreEntry)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = &ignoreEntry{
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					pos:      pos,
				}
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			add(f)
		}
		for _, f := range pkg.TestFiles {
			add(f)
		}
	}
	return out
}

// matchIgnore finds a waiver for d: same file, the diagnostic's line or the
// line directly above, matching analyzer name.
func matchIgnore(ignores map[string]map[int]*ignoreEntry, d *Diagnostic) *ignoreEntry {
	byLine := ignores[d.Pos.Filename]
	if byLine == nil {
		return nil
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if e := byLine[line]; e != nil && e.analyzer == d.Analyzer {
			return e
		}
	}
	return nil
}

// hasAnnotation reports whether the comment group carries the given
// //mvlint:<name> marker as a standalone directive comment.
func hasAnnotation(groups []*ast.CommentGroup, name string) bool {
	want := "//mvlint:" + name
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
				return true
			}
		}
	}
	return false
}
