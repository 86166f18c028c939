// Package flashvet is the stdlib-only analysis framework behind
// cmd/flashvet, the simulator's invariant checker. It mirrors the shape
// of golang.org/x/tools/go/analysis — an Analyzer owns a Run function
// over a Pass, diagnostics carry positions — but is built entirely on
// go/parser and go/types so the repo keeps zero external dependencies
// (the module proxy is not reachable from every environment this repo
// builds in, so pinning x/tools is not an option; see README "Static
// analysis").
//
// The framework loads the whole module (Load), type-checks every
// package from source against gc export data for the standard library,
// and hands each analyzer one Pass per package plus a Program-wide
// function index so checks like hotpath's transitive walk can follow
// static calls across package boundaries.
package flashvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a resolved source position and a message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic the way go vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one type-checked package of the loaded program.
type Package struct {
	// Path is the import path ("ppbflash/internal/nand"), or the bare
	// package name for analysistest fixtures.
	Path string
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// FuncBody locates the declaration of a function anywhere in the
// program, for transitive (cross-package) checks.
type FuncBody struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Program is a loaded, type-checked set of module packages.
type Program struct {
	Fset *token.FileSet
	// Packages holds the module-local packages in dependency order.
	Packages []*Package
	// Funcs indexes every function and method declaration in Packages
	// by its types object, so analyzers can walk static call chains.
	Funcs map[*types.Func]*FuncBody
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass is the application of one analyzer to one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package of the program and
// returns the deduplicated findings in file/line order.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	seen := make(map[string]bool)
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{
				Analyzer: a,
				Prog:     prog,
				Pkg:      pkg,
				report: func(d Diagnostic) {
					// A construct reachable from hot-path roots in two
					// packages would otherwise be reported once per root
					// package.
					key := d.Pos.String() + "\x00" + d.Analyzer + "\x00" + d.Message
					if !seen[key] {
						seen[key] = true
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
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
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// DocHasAnnotation reports whether a declaration's doc comment contains
// the given flashvet annotation.
func DocHasAnnotation(doc *ast.CommentGroup, annotation string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, annotation) {
			return true
		}
	}
	return false
}

// Inspect walks the AST like ast.Inspect but also hands the visitor the
// stack of enclosing nodes (outermost first, not including n itself).
func Inspect(n ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := visit(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// CalleeFunc resolves the static callee of a call expression: the
// *types.Func of a plain function call or a method call. It returns nil
// for builtins, conversions, calls of function-typed values and calls
// through interface values cannot be distinguished here — interface
// methods resolve to their interface declaration, which simply has no
// body in Program.Funcs.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// MentionsObject reports whether expr references the given object.
func MentionsObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
