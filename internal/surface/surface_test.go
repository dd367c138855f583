// Package surface_test holds two checks over the whole module. The first:
// every exported function and method declared in a non-test file under
// internal/ has a caller in a program, or is reachable through the public
// API; every exported function and method of the root package, which is
// the public API, has a caller in a program outside it; and every exported
// type, constant and variable of the root package is named by a program
// outside it or, for a type, reached through the public API. A name that
// only tests use is library surface nothing runs; delete it with the code
// only it uses, and move its tests to the path the program runs. The
// second: each package has at most one package doc comment, since go doc
// joins every comment placed directly above a package clause into the
// package's overview.
//
// The package has no non-test files, so it builds nothing of its own and its
// tests run in parallel with the other packages' tests.
package surface_test

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
	"sort"
	"strings"
	"testing"
)

const (
	module   = "repro"
	internal = module + "/internal/"
)

// exempt lists the exported names with no program caller that stay, each
// with its reason. Interface methods, root types reachable from the root
// package's exported API and, under internal/, functions and methods
// reachable from it are found by the check itself and are not listed. A
// key is a package under internal/ (or "repro" for the root), then the
// receiver's type name for a method, then the name; a bare package
// exempts all of it.
var exempt = map[string]string{
	// Test seams that other packages' tests call.
	"optimizer.MustNew":       "panicking constructor for tests over fixed queries",
	"cost.MustNewModel":       "panicking constructor for tests over fixed queries",
	"sqlmini.MustParse":       "panicking parser for tests over fixed SQL",
	"ess.FromSurface":         "builds a Space from a synthetic cost surface for strategy tests",
	"ess.Grid.Unflatten":      "grid coordinates of a cell for the bouquet density tests",
	"workload.Random":         "random connected queries for the property tests",
	"workload.Describe":       "names a random query in property-test failures",
	"spillbound.NewRunner":    "runner over a bare Space for tests outside the package",
	"aligned.NewRunner":       "runner over a bare Space for tests outside the package",
	"telemetry.Counter.Value": "reads a counter in the server and fleet metric tests",
	"workgolden.Check":        "checks the work counts of testdata/work_golden.json in the bouquet, aligned and engine tests",

	// Reference implementations that tests compare the program's path with.
	"ess.Subspace.Each":     "full walk of a subspace that ContourCells is checked against",
	"bouquet.Diagram.Stats": "reduction statistics the tests check the λ bound with",
	"plan.Plan.Format":      "the readable plan tree that test failures print",
	"lowerbound":            "Theorem 4.6's adversary game, played by its tests and benchmark",

	// Counters a test pins before a program reads them.
	"ess.Space.Splits": "the DP's split-evaluation count (optimizer.splits), pinned by TestBuildSplitsGolden in testdata/work_golden.json",
}

// pkg is one package as go list prints it.
type pkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

func TestEveryExportHasProgramCaller(t *testing.T) {
	unused, stale, err := scan(moduleDirs(t)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		t.Errorf("%s has no use in a program (a non-test file, outside package repro for a root name) and is not reached through the API: delete it, or add it to exempt with the reason it stays", name)
	}
	for _, name := range stale {
		t.Errorf("exempt lists %s, which has a caller, is reachable from the API or is gone: drop the entry", name)
	}
}

// TestOnePackageDocComment fails when more than one non-test file of a
// package carries a package doc comment: a file comment meant for the
// file alone needs a blank line between it and the package clause.
func TestOnePackageDocComment(t *testing.T) {
	for _, dir := range moduleDirs(t) {
		ps, err := goList(dir, "-json=ImportPath,Dir,GoFiles", "./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			var docs []string
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(p.Dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
				if err != nil {
					t.Fatal(err)
				}
				if f.Doc != nil {
					docs = append(docs, name)
				}
			}
			if len(docs) > 1 {
				t.Errorf("%s has %d package doc comments (%s): keep one, and set a blank line between each other comment and its package clause", p.ImportPath, len(docs), strings.Join(docs, ", "))
			}
		}
	}
}

// moduleDirs returns the module's root directory, which holds the root
// package, and perfbench's, skipping the test when there is no go command
// to list their packages with.
func moduleDirs(t *testing.T) []string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not found")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return []string{root, filepath.Join(root, "perfbench")}
}

// scan type-checks the non-test files of every package of the modules in
// dirs, the first of which holds the root package. It returns the exported
// functions and methods, and the root package's exported types, constants
// and variables, that no program uses and exempt does not list, and the
// exempt entries that cover none of them. A program use of a name under
// internal/ is one in any non-test file; of a root name, one in a non-test
// file outside the root package.
func scan(dirs ...string) (unused, stale []string, err error) {
	c := &checker{
		fset:    token.NewFileSet(),
		local:   map[string]pkg{},
		checked: map[string]*types.Package{},
		files:   map[*token.File]string{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	var order, std []string
	seen := map[string]bool{}
	for _, dir := range dirs {
		ps, err := goList(dir, "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
		if err != nil {
			return nil, nil, err
		}
		for _, p := range ps {
			switch {
			case seen[p.ImportPath]:
			case p.Standard:
				std = append(std, p.ImportPath)
			default:
				c.local[p.ImportPath] = p
				order = append(order, p.ImportPath)
			}
			seen[p.ImportPath] = true
		}
	}
	// The standard library comes from export data, which costs less than
	// type-checking its source.
	ps, err := goList(dirs[0], append([]string{"-export", "-json=ImportPath,Export"}, std...)...)
	if err != nil {
		return nil, nil, err
	}
	exports := map[string]string{}
	for _, p := range ps {
		exports[p.ImportPath] = p.Export
	}
	c.gc = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	for _, path := range order {
		if _, err := c.Import(path); err != nil {
			return nil, nil, err
		}
	}

	// Every exported function and method declared in the root package or
	// under internal/, a method an interface type declares excepted (it has
	// no body to be dead), and every other exported name the root package
	// declares.
	decls := map[types.Object]string{}
	for _, obj := range c.info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || !fn.Exported() || fn.Pkg().Path() != module && !strings.HasPrefix(fn.Pkg().Path(), internal) {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !types.IsInterface(recv.Type()) {
			decls[fn] = key(fn)
		}
	}
	rootScope := c.checked[module].Scope()
	for _, name := range rootScope.Names() {
		if obj := rootScope.Lookup(name); obj.Exported() {
			if _, ok := obj.(*types.Func); !ok {
				decls[obj] = module + "." + name
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			// A function calling itself is no caller.
			if _, ok := decls[obj]; ok && obj.(*types.Func).Scope().Contains(id.Pos()) {
				continue
			}
		}
		// The root package is the public API: an export there is a promise
		// to callers outside it, so its own uses do not count.
		if obj.Pkg() != nil && obj.Pkg().Path() == module && c.files[c.fset.File(id.Pos())] == module {
			continue
		}
		used[obj] = true
	}

	ifaces, err := c.interfaces(std)
	if err != nil {
		return nil, nil, err
	}
	apiFuncs, apiTypes := reachable(c.checked[module], used)
	needed := map[string]bool{}
	for obj, name := range decls {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && (apiFuncs[fn] && fn.Pkg().Path() != module || implements(fn, ifaces)) {
			continue
		}
		if tn, ok := obj.(*types.TypeName); ok && apiTypes[tn] {
			continue
		}
		if k, ok := exempted(name); ok {
			needed[k] = true
			continue
		}
		unused = append(unused, name)
	}
	for k := range exempt {
		if !needed[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(unused)
	sort.Strings(stale)
	return unused, stale, nil
}

// goList runs go list in dir and decodes the packages it prints.
func goList(dir string, args ...string) ([]pkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var ps []pkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// checker type-checks the module's packages from source, each once, and
// the standard library from export data, recording every use in one Info
// and the package of every file it parsed.
type checker struct {
	fset    *token.FileSet
	gc      types.Importer
	local   map[string]pkg
	checked map[string]*types.Package
	info    *types.Info
	files   map[*token.File]string
}

func (c *checker) Import(path string) (*types.Package, error) {
	p, ok := c.local[path]
	if !ok {
		return c.gc.Import(path)
	}
	if tp := c.checked[path]; tp != nil {
		return tp, nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		c.files[c.fset.File(f.Pos())] = path
	}
	conf := types.Config{Importer: c}
	tp, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.checked[path] = tp
	return tp, nil
}

// interfaces returns every interface type a method could be called through:
// the named ones of the standard packages in std, the unnamed ones package
// errors asserts on, and every interface type the module's code spells out
// or names.
func (c *checker) interfaces(std []string) ([]*types.Interface, error) {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	scopes := []*types.Scope{types.Universe}
	for _, path := range std {
		tp, err := c.gc.Import(path)
		if err != nil {
			return nil, err
		}
		scopes = append(scopes, tp.Scope())
	}
	for _, s := range scopes {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	// errors.Is, As and Unwrap assert on interfaces they never name, which
	// export data does not carry.
	for _, src := range []string{
		"interface{ Unwrap() error }", "interface{ Unwrap() []error }",
		"interface{ Is(error) bool }", "interface{ As(any) bool }",
	} {
		tv, err := types.Eval(c.fset, nil, token.NoPos, src)
		if err != nil {
			return nil, err
		}
		add(tv.Type)
	}
	for _, tv := range c.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	return out, nil
}

// implements reports whether fn is a method that an interface in ifaces
// names and whose receiver type implements that interface, so that a call
// through the interface can reach it.
func implements(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// reachable returns the methods a user of root can call, and the named
// types the user can get hold of: those that root's exported API reaches
// through declarations, aliases, signatures, exported or embedded fields
// and element types, and the exported methods of each. The walk starts
// from root's exported functions, constants and variables, and from its
// exported types that used holds, the ones a program outside root names;
// an exported type that no program names is not reached by its own
// declaration.
func reachable(root *types.Package, used map[types.Object]bool) (map[*types.Func]bool, map[*types.TypeName]bool) {
	out := map[*types.Func]bool{}
	named := map[*types.TypeName]bool{}
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		t = types.Unalias(t)
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			named[t.Obj()] = true
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					out[m.Origin()] = true
					walk(m.Type())
				}
			}
			walk(t.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			for _, tu := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tu.Len(); i++ {
					walk(tu.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	s := root.Scope()
	for _, name := range s.Names() {
		obj := s.Lookup(name)
		if _, isType := obj.(*types.TypeName); obj.Exported() && (!isType || used[obj]) {
			walk(obj.Type())
		}
	}
	return out, named
}

// key names fn as exempt does: its package under internal/ (or the root
// package's path), its receiver's type name for a method, and its own name.
func key(fn *types.Func) string {
	k := strings.TrimPrefix(fn.Pkg().Path(), internal)
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		k += "." + t.(*types.Named).Obj().Name()
	}
	return k + "." + fn.Name()
}

// exempted returns the exempt entry that covers key: the name itself or its
// whole package.
func exempted(key string) (string, bool) {
	if _, ok := exempt[key]; ok {
		return key, true
	}
	p, _, _ := strings.Cut(key, ".")
	_, ok := exempt[p]
	return p, ok
}
