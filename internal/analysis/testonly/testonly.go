// Package testonly keeps the module's exported surface honest: every
// exported function, method, type, variable or constant declared under
// internal/ must have a reader in non-test code — a command, an example,
// the facade or another internal package — or say in its doc comment
// which test or outside reader it exists for:
//
//	//flashvet:testonly <reason naming the reader>
//
// A name that only tests read is a test helper living in production
// code; a name nothing reads is dead. Both drift in by hand (a caller is
// deleted, an accessor is added "for tests"), and both make the
// simulator look larger than the figures need.
//
// The rule is module-wide, so the analyzer gathers one set of referenced
// objects over every loaded package before it checks any. The loader
// type-checks module packages from source and hands every importer the
// same *types.Package, so a use in cmd/flashsim resolves to the very
// object the declaring package defines. Only non-test files are loaded,
// so test references never count. A reference inside the name's own
// declaration (recursion, a method's receiver, a type's own fields)
// does not count either.
//
// Calls through an interface resolve to the interface's method, not to
// the implementations, so a method also counts as read when any
// interface type the program mentions has a method of its name, or when
// it is String or Error, which fmt and errors reach through interfaces
// the program never names.
package testonly

import (
	"go/ast"
	"go/types"
	"strings"

	"ppbflash/internal/analysis/flashvet"
)

// annotation marks an exported name whose only readers are tests or code
// outside the loaded program; the reason follows it on the same line.
const annotation = "flashvet:testonly"

// New returns the analyzer checking the packages whose import path has
// the given prefix (fixture tests pass the fixture package name).
func New(scope string) *flashvet.Analyzer {
	var (
		indexed *flashvet.Program
		idx     *index
	)
	return &flashvet.Analyzer{
		Name: "testonly",
		Doc:  "exported names under internal/ need a non-test reader or a //flashvet:testonly reason",
		Run: func(pass *flashvet.Pass) error {
			if !strings.HasPrefix(pass.Pkg.Path, scope) {
				return nil
			}
			if indexed != pass.Prog {
				indexed, idx = pass.Prog, buildIndex(pass.Prog)
			}
			check(pass, idx)
			return nil
		},
	}
}

// Default is the analyzer over the module's internal packages.
func Default() *flashvet.Analyzer { return New("ppbflash/internal/") }

// index is the program-wide evidence: which objects some non-test file
// reads outside their own declaration, and every method name an
// interface type of the program declares.
type index struct {
	used       map[types.Object]bool
	ifaceNames map[string]bool
}

func buildIndex(prog *flashvet.Program) *index {
	own := make(map[types.Object]ast.Node)
	receivers := make(map[*ast.Ident]bool)
	for _, pkg := range prog.Packages {
		eachDecl(pkg, func(obj types.Object, decl ast.Node, _ *ast.CommentGroup) {
			own[obj] = decl
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		})
	}
	idx := &index{used: make(map[types.Object]bool), ifaceNames: map[string]bool{"String": true, "Error": true}}
	for _, pkg := range prog.Packages {
		for id, obj := range pkg.Info.Uses {
			obj = origin(obj)
			if decl := own[obj]; receivers[id] || decl != nil && decl.Pos() <= id.Pos() && id.Pos() < decl.End() {
				continue
			}
			idx.used[obj] = true
		}
		for _, tv := range pkg.Info.Types {
			if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					idx.ifaceNames[iface.Method(i).Name()] = true
				}
			}
		}
	}
	return idx
}

func check(pass *flashvet.Pass, idx *index) {
	eachDecl(pass.Pkg, func(obj types.Object, _ ast.Node, doc *ast.CommentGroup) {
		if !obj.Exported() || idx.used[obj] {
			return
		}
		what := kind(obj)
		if what == "method" && idx.ifaceNames[obj.Name()] {
			return
		}
		if flashvet.DocHasAnnotation(doc, annotation) {
			return
		}
		pass.Reportf(obj.Pos(),
			"exported %s %s has no reader outside tests; delete it, unexport it, or annotate //flashvet:testonly <reason>",
			what, qualified(obj))
	})
}

// eachDecl calls visit for every package-level func, method, type, var
// and const the package declares, with the declaration node that owns
// the name and the doc comment that may annotate it.
func eachDecl(pkg *flashvet.Package, visit func(obj types.Object, decl ast.Node, doc *ast.CommentGroup)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if obj := pkg.Info.Defs[d.Name]; obj != nil {
					visit(obj, d, d.Doc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					doc := specDoc(d, spec)
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if obj := pkg.Info.Defs[s.Name]; obj != nil {
							visit(obj, s, doc)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								visit(obj, s, doc)
							}
						}
					}
				}
			}
		}
	}
}

// specDoc is the doc comment of one spec: its own, or the declaration's
// when the declaration is not a parenthesized group.
func specDoc(d *ast.GenDecl, spec ast.Spec) *ast.CommentGroup {
	var doc *ast.CommentGroup
	switch s := spec.(type) {
	case *ast.TypeSpec:
		doc = s.Doc
	case *ast.ValueSpec:
		doc = s.Doc
	}
	if doc == nil && !d.Lparen.IsValid() {
		doc = d.Doc
	}
	return doc
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func kind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if o.Signature().Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// qualified renders pkg.Name or pkg.Type.Method.
func qualified(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Name() + "." + name
}
