// Package determinism enforces the simulator's bit-identical-replay
// contract at vet time: inside the deterministic simulation packages,
// nothing may read the wall clock, draw from the global (racily seeded)
// math/rand state, or fold unordered map iteration into outer state.
//
// Every number a replay produces must be a pure function of (trace,
// config, seed) at any host parallelism — that is what lets the golden
// fixtures pin figure series byte-exactly and what the
// parallelism-1-vs-8 determinism tests assert after the fact. This
// analyzer moves the same contract to compile time:
//
//   - time.Now / time.Since are flagged, with no exception: host-speed
//     timing belongs to the commands that report it (flashsim's speed
//     line), outside the simulation packages.
//   - Package-level math/rand (and math/rand/v2) calls are flagged:
//     the global source is seeded per-process and shared across
//     goroutines, so equal configs would stop producing equal replays.
//     Seeded per-component sources — rand.New(rand.NewSource(seed)) —
//     and the rand.NewZipf constructor stay legal, matching how
//     internal/workload and internal/nand/reliability.go already draw.
//   - `for ... range m` over a map is flagged when the loop body writes
//     to anything outside the loop (directly or through calls): the
//     iteration order is deliberately randomized by the runtime, so any
//     such fold can differ run to run and leak into a Result, a Series
//     or a sched.Event. The sanctioned idiom is collecting the keys
//     (`ks = append(ks, k)` as the loop's only statement), sorting them
//     (sort or slices package), and iterating the sorted slice;
//     loops that only read into loop-local state pass.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"ppbflash/internal/analysis/flashvet"
)

// DefaultPaths lists the deterministic simulation packages: everything
// whose numbers feed figures, goldens, or replay scheduling. Workload
// generators are excluded by design — they draw from their own seeded
// sources, which satellite tests pin — and cmd/ binaries are reporting
// shells around the harness.
var DefaultPaths = []string{
	"ppbflash/internal/nand",
	"ppbflash/internal/ftl",
	"ppbflash/internal/vblock",
	"ppbflash/internal/sched",
	"ppbflash/internal/metrics",
	"ppbflash/internal/trace",
	"ppbflash/internal/hotness",
	"ppbflash/internal/harness",
}

// randConstructors are the math/rand package functions that build
// seeded generators rather than drawing from the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// New returns the analyzer scoped to packages whose import path matches
// one of the given paths exactly (fixture tests scope it to the fixture
// package name).
func New(paths []string) *flashvet.Analyzer {
	scope := make(map[string]bool, len(paths))
	for _, p := range paths {
		scope[p] = true
	}
	return &flashvet.Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads, global math/rand and unordered map folds in deterministic simulation packages",
		Run: func(pass *flashvet.Pass) error {
			if !scope[pass.Pkg.Path] {
				return nil
			}
			run(pass)
			return nil
		},
	}
}

// Default is the analyzer over the repo's deterministic packages.
func Default() *flashvet.Analyzer { return New(DefaultPaths) }

func run(pass *flashvet.Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n, info)
			}
			return true
		})
	}
}

func checkCall(pass *flashvet.Pass, call *ast.CallExpr) {
	fn := flashvet.CalleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(),
				"wall clock read (time.%s) in deterministic package %s; simulated time must come from the device clocks",
				fn.Name(), pass.Pkg.Path)
		}
	case "math/rand", "math/rand/v2":
		// Methods on *rand.Rand / *rand.Zipf have a receiver; only the
		// package-level draws share the global source.
		if fn.Signature().Recv() != nil || randConstructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(),
			"global %s.%s draws from the process-wide source in deterministic package %s; use a seeded rand.New(rand.NewSource(...)) instance",
			fn.Pkg().Path(), fn.Name(), pass.Pkg.Path)
	}
}

// checkRange flags unordered map iteration that writes outward.
func checkRange(pass *flashvet.Pass, rng *ast.RangeStmt, info *types.Info) {
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if isSortedKeyCollection(pass, rng, info) {
		return
	}
	if obj := firstOutwardWrite(rng, info); obj != nil {
		pass.Reportf(rng.Pos(),
			"map iteration order is unordered but the loop body writes %s outside the loop; collect the keys, sort them, and iterate the sorted slice",
			obj)
	}
}

// isSortedKeyCollection recognizes the sanctioned idiom: the loop's only
// statement appends the key to a slice that a later statement of the
// same function sorts.
func isSortedKeyCollection(pass *flashvet.Pass, rng *ast.RangeStmt, info *types.Info) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || info.Uses[id] != nil && info.Uses[id].Parent() != types.Universe {
		return false
	}
	dest, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	destObj := objectOf(info, dest)
	if destObj == nil {
		return false
	}
	// Find the enclosing function and look for a sort call over dest
	// after the loop.
	fd := enclosingFunc(pass, rng)
	if fd == nil {
		return false
	}
	sorted := false
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted || call.Pos() < rng.End() {
			return true
		}
		fn := flashvet.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		if !strings.HasPrefix(fn.Name(), "Sort") && !strings.HasSuffix(fn.Name(), "Sort") &&
			fn.Name() != "Ints" && fn.Name() != "Strings" && fn.Name() != "Float64s" &&
			fn.Name() != "Slice" && fn.Name() != "SliceStable" && fn.Name() != "Stable" {
			return true
		}
		for _, arg := range call.Args {
			if flashvet.MentionsObject(info, arg, destObj) {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// firstOutwardWrite returns an object declared outside the loop body
// that the body writes to (assignment, inc/dec, or passing the ranged
// state to a non-exempt call), or nil when the body only reads.
func firstOutwardWrite(rng *ast.RangeStmt, info *types.Info) types.Object {
	inside := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
	}
	var found types.Object
	note := func(obj types.Object) {
		if found == nil && obj != nil {
			found = obj
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj := rootObject(info, lhs); obj != nil && !inside(obj) {
					note(obj)
				}
			}
		case *ast.IncDecStmt:
			if obj := rootObject(info, n.X); obj != nil && !inside(obj) {
				note(obj)
			}
		case *ast.CallExpr:
			// Calls may mutate through pointers or accumulate elsewhere
			// (histogram observes, event pushes, deletes on other maps).
			// Pure builtins are exempt, as is delete on the ranged map
			// itself: per-key deletes/updates of the ranged map commute.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "len", "cap", "min", "max", "append":
					return true
				case "delete":
					if len(n.Args) == 2 && sameRoot(info, n.Args[0], rng.X) {
						return true
					}
				}
			}
			if fn := flashvet.CalleeFunc(info, n); fn != nil {
				note(fn)
			} else if _, isConv := info.Types[n.Fun]; isConv && info.Types[n.Fun].IsType() {
				return true // type conversion, not a call
			} else {
				// Function-valued call we cannot resolve: conservative.
				if obj := rootObject(info, n.Fun); obj != nil {
					note(obj)
				}
			}
		}
		return found == nil
	})
	return found
}

// rootObject resolves the base identifier of an lvalue-ish expression
// (x, x.f, x[i], *x → object of x).
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return objectOf(info, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func sameRoot(info *types.Info, a, b ast.Expr) bool {
	ra, rb := rootObject(info, a), rootObject(info, b)
	return ra != nil && ra == rb
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// enclosingFunc finds the function declaration containing the node.
func enclosingFunc(pass *flashvet.Pass, n ast.Node) *ast.FuncDecl {
	for _, f := range pass.Pkg.Files {
		if n.Pos() < f.Pos() || n.Pos() > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil &&
				n.Pos() >= fd.Pos() && n.End() <= fd.End() {
				return fd
			}
		}
	}
	return nil
}
