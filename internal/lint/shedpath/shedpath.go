// Package shedpath enforces the overload-answer contract on the serving
// surface: a function implementing a shed, drop, CoDel, or degradation
// decision must stamp every Response it builds — a coded
// *exactsim.Error (the shed/drop case), the Degraded flag (the case
// where the plan that ran is cheaper than the one asked for), or the
// Partial flag (the anytime best-so-far case, where a deadline-capped
// ladder answers with the accuracy it reached).
// A bare success-shaped Response escaping an overload path is the worst
// kind of overload bug: the caller sees a normal answer with no scores
// and no error, retries nothing, degrades nothing, and the taxonomy
// (DESIGN §5, §12, §13) silently ends there.
//
// Detection is structural (fixtures cannot import the module): inside
// the coded-error package set, any function whose name mentions an
// overload verb (shed / drop / codel / degrad / brownout,
// case-insensitive) is an overload path, and every keyed composite
// literal of a Response-suffixed type it builds must set an Err,
// Degraded or Partial field. The Service's one stamping exit,
// stampDegraded, is named into that vocabulary so it stays in reach.
// Helpers that fill the stamp in later suppress the finding with the
// //lint:shed-ok directive, justification required.
package shedpath

import (
	"go/ast"
	"regexp"

	"github.com/exactsim/exactsim/internal/lint"
	"github.com/exactsim/exactsim/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "shedpath",
	Doc: "require overload paths to stamp their Responses\n\n" +
		"In the exactsim, httpapi and cluster packages, functions implementing shed,\n" +
		"drop, CoDel or degradation decisions must not build a Response that sets none of\n" +
		"Err, Degraded or Partial: an unstamped answer leaving an overload path loses\n" +
		"the retryable error taxonomy, the degradation marker and the best-so-far\n" +
		"marker at once.",
	Run: run,
}

// overloadName marks a function as an overload path by its name.
var overloadName = regexp.MustCompile(`(?i)shed|drop|codel|degrad|brownout`)

func run(pass *analysis.Pass) (any, error) {
	if !lint.CodedErrorPackages(pass.Pkg.Path()) {
		return nil, nil
	}
	sup := lint.NewSuppressorFor(pass, lint.ShedDirective)
	lint.WalkFiles(pass, func(f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !overloadName.MatchString(fd.Name.Name) {
				continue
			}
			checkFunc(pass, sup, fd)
		}
	})
	return nil, nil
}

// checkFunc flags every Response-like composite literal in fd's body
// (closures included — an unstamped Response escapes through a callback
// just the same) that sets neither Err nor Degraded. Positional literals
// are left alone: they can only compile by filling every field, Err
// included.
func checkFunc(pass *analysis.Pass, sup *lint.Suppressor, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		name := responseTypeName(cl.Type)
		if name == "" || stamped(cl) || positional(cl) || sup.Suppressed(cl.Pos()) {
			return true
		}
		pass.Reportf(cl.Pos(), "overload path %s builds a %s with none of Err, Degraded or Partial set; a shed, degraded or best-so-far answer must carry a coded *exactsim.Error, the Degraded flag or the Partial flag", fd.Name.Name, name)
		return true
	})
}

// responseTypeName returns the syntactic type name when it looks like a
// wire response ("Response" or any *Response suffix, qualified or not),
// else "".
func responseTypeName(t ast.Expr) string {
	var id *ast.Ident
	switch u := t.(type) {
	case *ast.Ident:
		id = u
	case *ast.SelectorExpr:
		id = u.Sel
	default:
		return ""
	}
	name := id.Name
	if name == "Response" || (len(name) > len("Response") && name[len(name)-len("Response"):] == "Response") {
		return name
	}
	return ""
}

// stamped reports whether the literal sets an Err, Degraded or Partial
// field — Partial marks the anytime best-so-far answer a deadline-capped
// ladder returns instead of a bare deadline_exceeded.
func stamped(cl *ast.CompositeLit) bool {
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && (key.Name == "Err" || key.Name == "Degraded" || key.Name == "Partial") {
			return true
		}
	}
	return false
}

// positional reports whether the literal uses unkeyed elements.
func positional(cl *ast.CompositeLit) bool {
	for _, elt := range cl.Elts {
		if _, ok := elt.(*ast.KeyValueExpr); !ok {
			return true
		}
	}
	return false
}
