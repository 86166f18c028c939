package flashvet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

// Load builds and type-checks the module packages matched by the
// patterns (plus their module-local dependencies), resolving standard
// library imports through gc export data produced by the go tool — no
// network, no external modules. dir is the module root the patterns are
// interpreted in.
func Load(dir string, patterns []string) (*Program, error) {
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Standard,Export"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("flashvet: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	// go list -deps emits dependencies before dependents, so one forward
	// pass type-checks every module package after its imports.
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("flashvet: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}

	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	prog := &Program{
		Fset:  token.NewFileSet(),
		Funcs: make(map[*types.Func]*FuncBody),
	}
	checked := make(map[string]*types.Package)
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("flashvet: no export data for %q", path)
		}
		return os.Open(file)
	}
	gcImporter := importer.ForCompiler(prog.Fset, "gc", lookup)
	imp := moduleImporter{checked: checked, std: gcImporter}

	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		pkg, err := checkPackage(prog, p, imp)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg.Types
		// Dependency-only module packages (possible with narrower
		// patterns than ./...) still contribute bodies to the transitive
		// index and stay subject to analysis like any other.
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// moduleImporter resolves module-local imports from the packages
// already checked this load, and everything else from gc export data.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	return m.std.Import(path)
}

// checkPackage parses and type-checks one module package.
func checkPackage(prog *Program, lp listPackage, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("flashvet: %w", err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Path:  lp.ImportPath,
		Files: files,
		Info:  newInfo(),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, prog.Fset, files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("flashvet: type-checking %s: %w", lp.ImportPath, err)
	}
	pkg.Types = tpkg
	indexFuncs(prog, pkg)
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// indexFuncs records every function/method body of the package in the
// program-wide index.
func indexFuncs(prog *Program, pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				prog.Funcs[fn] = &FuncBody{Decl: fd, Pkg: pkg}
			}
		}
	}
}

// LoadFixture parses and type-checks a single analysistest fixture
// directory as one package. Fixture packages may import only the
// standard library; the package path is the fixture's package name.
// Like Load, it skips _test.go files, so a fixture can model a name that
// only a test reads.
func LoadFixture(dir string) (*Program, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("flashvet: fixture: %w", err)
	}
	prog := &Program{
		Fset:  token.NewFileSet(),
		Funcs: make(map[*types.Func]*FuncBody),
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("flashvet: fixture: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("flashvet: fixture %s has no .go files", dir)
	}
	exports, err := stdExports()
	if err != nil {
		return nil, err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("flashvet: fixture imports non-std package %q", path)
		}
		return os.Open(file)
	}
	pkg := &Package{
		Path:  files[0].Name.Name,
		Files: files,
		Info:  newInfo(),
	}
	conf := types.Config{Importer: importer.ForCompiler(prog.Fset, "gc", lookup)}
	tpkg, err := conf.Check(pkg.Path, prog.Fset, files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("flashvet: fixture %s: %w", dir, err)
	}
	pkg.Types = tpkg
	indexFuncs(prog, pkg)
	prog.Packages = []*Package{pkg}
	return prog, nil
}

var stdExportCache map[string]string

// stdExports returns the std-library export-data file map, building it
// once per process via the go tool's build cache.
func stdExports() (map[string]string, error) {
	if stdExportCache != nil {
		return stdExportCache, nil
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Export", "std")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("flashvet: go list std: %v\n%s", err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	stdExportCache = exports
	return exports, nil
}
