package blockbench

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
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestChooserRule is the chooser rule (DESIGN.md § What earns its place)
// as a check: every function, method and package-level type, const and
// var of this module is used by some non-test code, here or in bench/,
// every struct field is read by it and every knob-typed field set, or
// DESIGN.md's allowlist names it with a reason. A table row the scan no
// longer reports is stale and fails too.
func TestChooserRule(t *testing.T) {
	scan, err := moduleScan()
	if err != nil {
		t.Fatal(err)
	}
	unused := scan.unused
	t.Logf("scan: %d names unused outside tests, in %v", len(unused), scan.took.Round(time.Millisecond))
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := chooserAllowlist(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range chooserDiff(unused, allowed) {
		t.Error(problem)
	}
}

// TestChooserScanFixture runs the scan over a two-module fixture: one
// planted unused function, two write-only fields and one never-set knob
// are all it reports, past the method, generic and cross-module uses and
// the implicit field reads and writes it must see, and the allowlist
// check fails on that function and on a stale row. Of three packages
// beside them, it skips the test-support one and reports the dead
// function of one only a test imports and the unused function of a
// "test"-named one that the other module imports.
func TestChooserScanFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"lib/go.mod": "module fix\n\ngo 1.22\n",
		"lib/fix.go": `package fix

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// Unused is planted: nothing calls it.
func Unused() {}

// CallerOnly is called only from the other module.
func CallerOnly() {}

type ints []int

func (h ints) Len() int           { return len(h) }
func (h ints) Less(i, j int) bool { return h[i] < h[j] }
func (h ints) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ints) Push(x any)        { *h = append(*h, x.(int)) }
func (h *ints) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

type box struct{}

// Apply is reached only through the inline interface below.
func (box) Apply() {}

type list[T any] struct{ items []T }

func (l *list[T]) add(v T) { l.items = append(l.items, v) }

// planted's fields are planted: writeOnly is never read, knob never set.
type planted struct {
	writeOnly int
	knob      int
}

// key's fields are read only as a generic map key.
type key struct{ a, b int }

type cache[K comparable, V any] struct{ m map[K]V }

func newCache[K comparable, V any]() *cache[K, V] { return &cache[K, V]{m: make(map[K]V)} }

// conf is decoded by encoding/json without tags.
type conf struct{ Name string }

// gate's flag is read only through CompareAndSwap's result.
type gate struct{ started atomic.Bool }

// opts' field is filled only through its address.
type opts struct{ n int }

// snap's field is planted: it is never read, and holding snap in an
// atomic.Pointer, whose type parameter is not comparable, reads nothing.
type snap struct{ unread int }

// guarded's mutex is never assigned: its zero value is ready.
type guarded struct {
	mu sync.Mutex
	n  int
}

// counter's field is planted: its one use, an atomic Add whose result
// is dropped, writes it and reads nothing.
type counter struct{ n atomic.Int64 }

func Entry() int {
	h := &ints{3, 1}
	heap.Init(h)
	var v any = box{}
	if a, ok := v.(interface{ Apply() }); ok {
		a.Apply()
	}
	var l list[int]
	l.add(1)
	var p planted
	p.writeOnly = 1
	c := newCache[key, int]()
	c.m[key{1, 2}] = 3
	var cf conf
	_ = json.Unmarshal([]byte(` + "`" + `{"Name":"x"}` + "`" + `), &cf)
	var g gate
	if !g.started.CompareAndSwap(false, true) {
		return 0
	}
	var o opts
	fmt.Sscan("4", &o.n)
	var sp atomic.Pointer[snap]
	sp.Store(&snap{unread: 1})
	var gd guarded
	gd.mu.Lock()
	gd.n++
	gd.mu.Unlock()
	var ct counter
	ct.n.Add(1)
	return len(l.items) + p.knob + len(c.m) + gd.n
}
`,
		"lib/fix_test.go": "package fix\n\nimport (\n\t\"testing\"\n\n\t\"fix/dead\"\n\t\"fix/fixtest\"\n)\n\n" +
			"func TestUnused(t *testing.T) {\n\tUnused()\n\tdead.Dead()\n\tfixtest.Helper()\n}\n",
		// Test support: only a test imports it, so it needs no chooser.
		"lib/fixtest/fixtest.go": "package fixtest\n\nfunc Helper() {}\n",
		// Named like product code, so its one function is dead.
		"lib/dead/dead.go": "package dead\n\nfunc Dead() {}\n",
		// Named like test support, but the caller imports it.
		"lib/usedtest/usedtest.go": "package usedtest\n\nfunc Used() {}\n\nfunc Unused() {}\n",
		"caller/go.mod":            "module caller\n\ngo 1.22\n\nrequire fix v0.0.0\n\nreplace fix => ../lib\n",
		"caller/main.go": "package main\n\nimport (\n\t\"fix\"\n\t\"fix/usedtest\"\n)\n\n" +
			"func main() {\n\tfix.CallerOnly()\n\tfix.Entry()\n\tusedtest.Used()\n}\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, _, err := chooserScan(filepath.Join(dir, "lib"), filepath.Join(dir, "caller"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Unused", "counter.n", "dead.Dead", "planted.knob", "planted.writeOnly", "snap.unread", "usedtest.Unused"}; !slices.Equal(unused, want) {
		t.Fatalf("scan lists %v, want %v", unused, want)
	}
	problems := chooserDiff(unused, map[string]bool{})
	if len(problems) != len(unused) {
		t.Errorf("no allowlist: problems %q, want one per name listed", problems)
	}
	for i, name := range unused {
		if i < len(problems) && !strings.Contains(problems[i], name) {
			t.Errorf("no allowlist: problem %q does not name %s", problems[i], name)
		}
	}
	allowed := map[string]bool{"Gone": true}
	for _, name := range unused {
		allowed[name] = true
	}
	if problems := chooserDiff(unused, allowed); len(problems) != 1 || !strings.Contains(problems[0], "Gone") {
		t.Errorf("stale row Gone: problems %q, want one naming Gone", problems)
	}
}

// scanResult is what one chooserScan of the module and bench/ found:
// the names no non-test code uses, every package it type-checked by
// import path, and how long that took.
type scanResult struct {
	unused []string
	pkgs   map[string]*types.Package
	took   time.Duration
}

// moduleScan runs the module's scan once per test binary, so every check
// built on its type information shares one type-check.
var moduleScan = sync.OnceValues(func() (scanResult, error) {
	start := time.Now()
	unused, pkgs, err := chooserScan(".", "bench")
	return scanResult{unused, pkgs, time.Since(start)}, err
})

// chooserDiff compares the scan's list with the allowlist, both ways.
func chooserDiff(unused []string, allowed map[string]bool) []string {
	var problems []string
	for _, name := range unused {
		if !allowed[name] {
			problems = append(problems, fmt.Sprintf("%s: no non-test code uses it; delete it, or give DESIGN.md's allowlist a row with the reason", name))
		}
	}
	var stale []string
	for name := range allowed {
		if !slices.Contains(unused, name) {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		problems = append(problems, fmt.Sprintf("%s: DESIGN.md's allowlist row is stale; non-test code uses it, or it is gone", name))
	}
	return problems
}

// chooserAllowlist reads the name column of the | name | reason | table
// in DESIGN.md § What earns its place.
func chooserAllowlist(doc string) (map[string]bool, error) {
	_, section, found := strings.Cut(doc, "\n## What earns its place\n")
	if !found {
		return nil, fmt.Errorf("DESIGN.md has no What earns its place section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	allowed := make(map[string]bool)
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| name ") {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "| ---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|") // name | reason
		if len(cells) != 2 || strings.TrimSpace(cells[1]) == "" {
			return nil, fmt.Errorf("allowlist row %q: want a name and a reason", line)
		}
		allowed[strings.Trim(strings.TrimSpace(cells[0]), "`")] = true
	}
	if !inTable {
		return nil, fmt.Errorf("DESIGN.md § What earns its place has no | name | reason | table")
	}
	return allowed, nil
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	GoFiles      []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Export       string
	Standard     bool
	Module       *struct {
		Path string
		Main bool
	}
}

// chooserScan type-checks the non-test packages of the module at
// dirs[0] and of the caller modules at dirs[1:], and returns, sorted,
// every function, method and package-level type, const and var declared
// in the first module that no non-test file uses. Names read
// [package path relative to the module root.][Receiver.]Name. A method
// counts as used when its receiver satisfies an interface with a method
// of that name: a named or literal interface of the scanned code, or one
// of the standard library's that code implements for the library to call.
// It also returns, as [package.]Type.Field, every named field of a named
// struct type of the first module that no non-test file reads, and every
// knob-typed one (isKnob) that none writes (DESIGN.md § What earns its
// place gives the read and write positions). A test-support package —
// named like httptest, with a "test" suffix, and imported by test files
// and by no non-test package — is test code: the scan neither lists its
// declarations nor counts its uses. The packages it type-checked come
// back too, by import path.
func chooserScan(dirs ...string) ([]string, map[string]*types.Package, error) {
	fset := token.NewFileSet()
	exports := make(map[string]string) // standard-library import path -> export data file
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file, ok := exports[path]; ok {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})

	type decl struct {
		name string
		obj  types.Object
	}
	var decls, fields []decl
	used := make(map[types.Object]bool)
	read := make(map[types.Object]bool)  // fields read, explicitly or implicitly
	wrote := make(map[types.Object]bool) // fields written, explicitly or implicitly
	type implicitKey struct {
		t    types.Type
		deep bool
	}
	seenImplicit := make(map[implicitKey]bool)
	// implicit marks every field of t read and written: its values are
	// compared, hashed or handed to encoding/json, which reach each field
	// unseen. deep follows pointers, slices and maps too, as json does.
	var implicit func(t types.Type, deep bool)
	implicit = func(t types.Type, deep bool) {
		if seenImplicit[implicitKey{t, deep}] {
			return
		}
		seenImplicit[implicitKey{t, deep}] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				f := origin(u.Field(i))
				read[f], wrote[f] = true, true
				implicit(u.Field(i).Type(), deep)
			}
		case *types.Array:
			implicit(u.Elem(), deep)
		case *types.Pointer:
			if deep {
				implicit(u.Elem(), deep)
			}
		case *types.Slice:
			if deep {
				implicit(u.Elem(), deep)
			}
		case *types.Map:
			implicit(u.Key(), false)
			if deep {
				implicit(u.Elem(), deep)
			}
		}
	}
	var named []types.Type        // every named type of the scanned code
	var ifaces []*types.Interface // every interface with methods, named or literal
	seenIface := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	mainPath := ""
	var listed []listedPackage
	imported := make(map[string]bool)     // by a non-test package
	testImported := make(map[string]bool) // by a _test.go file
	for i, dir := range dirs {
		cmd := exec.Command("go", "list", "-json", "-export", "-deps", "./...", "container/heap", "flag", "fmt", "sort")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				return nil, nil, err
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
				continue
			}
			if p.Module == nil {
				return nil, nil, fmt.Errorf("%s: package outside any module", p.ImportPath)
			}
			if i == 0 && p.Module.Main {
				mainPath = p.Module.Path
			}
			for _, path := range p.Imports {
				imported[path] = true
			}
			for _, path := range slices.Concat(p.TestImports, p.XTestImports) {
				testImported[path] = true
			}
			listed = append(listed, p)
		}
	}
	for _, p := range listed {
		if _, ok := checked[p.ImportPath]; ok {
			continue
		}
		if strings.HasSuffix(p.Name, "test") && testImported[p.ImportPath] && !imported[p.ImportPath] {
			continue // test support
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, err
		}
		checked[p.ImportPath] = pkg

		own := p.Module.Path == mainPath
		prefix := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, mainPath), "/")
		if prefix != "" {
			prefix += "."
		}
		receivers := make(map[*ast.Ident]bool) // a method's receiver type is not a use of it
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
						name = receiverName(d.Recv.List[0].Type) + "." + name
					} else if name == "init" || name == "main" {
						continue
					}
					if own {
						decls = append(decls, decl{prefix + name, info.Defs[d.Name]})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var ids []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{s.Name}
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								break
							}
							for _, fd := range st.Fields.List {
								for _, id := range fd.Names {
									if own && id.Name != "_" {
										fields = append(fields, decl{prefix + s.Name.Name + "." + id.Name, info.Defs[id]})
									}
								}
								if fd.Tag != nil && strings.Contains(fd.Tag.Value, `json:"`) {
									implicit(info.Defs[s.Name].Type(), true)
								}
							}
						case *ast.ValueSpec:
							ids = s.Names
						}
						for _, id := range ids {
							if own && id.Name != "_" {
								decls = append(decls, decl{prefix + id.Name, info.Defs[id]})
							}
						}
					}
				}
			}
		}
		for id, obj := range info.Uses {
			if !receivers[id] {
				used[origin(obj)] = true
			}
		}
		access := make(map[*ast.SelectorExpr]fieldAccess)
		for _, f := range files {
			fieldUses(f, info, access, wrote, implicit)
		}
		for expr, sel := range info.Selections {
			obj := origin(sel.Obj())
			used[obj] = true
			if sel.Kind() != types.FieldVal {
				continue
			}
			a := access[expr]
			read[obj] = read[obj] || a != writeOnly
			wrote[obj] = wrote[obj] || a != readOnly
		}
		for _, tv := range info.Types {
			if tv.IsType() {
				addIface(tv.Type) // named interfaces' bodies are type expressions too
				if m, ok := tv.Type.(*types.Map); ok {
					implicit(m.Key(), false)
				}
			}
		}
		for id, inst := range info.Instances {
			// Only a comparable type parameter hashes or compares its
			// argument's values, as lru.Cache's keys; holding or
			// sorting them, as atomic.Pointer or slices.SortFunc do,
			// reaches no field.
			tparams := typeParams(info.Uses[id])
			for i := 0; i < inst.TypeArgs.Len() && i < tparams.Len(); i++ {
				if c, ok := tparams.At(i).Constraint().Underlying().(*types.Interface); ok && c.IsComparable() {
					implicit(inst.TypeArgs.At(i), false)
				}
			}
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn.Type())
			}
		}
	}

	for _, ref := range [][2]string{{"container/heap", "Interface"}, {"sort", "Interface"}, {"flag", "Value"}, {"fmt", "Stringer"}} {
		pkg, err := imp.Import(ref[0])
		if err != nil {
			return nil, nil, err
		}
		addIface(pkg.Scope().Lookup(ref[1]).Type())
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, t := range named {
		if _, ok := t.Underlying().(*types.Interface); ok {
			continue
		}
		ptr := types.NewPointer(t)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for j := 0; j < it.NumMethods(); j++ {
				m := it.Method(j)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					used[origin(sel.Obj())] = true
				}
			}
		}
	}

	var unused []string
	for _, d := range decls {
		if !used[d.obj] {
			unused = append(unused, d.name)
		}
	}
	for _, f := range fields {
		if !read[f.obj] || !wrote[f.obj] && isKnob(f.obj.Type()) {
			unused = append(unused, f.name)
		}
	}
	sort.Strings(unused)
	return unused, checked, nil
}

// fieldAccess is how a field selector x.f is used; the zero value,
// a plain read, is every position fieldUses does not record.
type fieldAccess int

const (
	readOnly  fieldAccess = iota
	writeOnly             // assigned, incremented, deleted from, cleared, or an atomic mutator whose result is dropped
	readWrite             // &x.f, or an atomic mutator whose result is used
)

// typeParams is the type parameter list of a generic function or type
// that an instantiated identifier denotes, nil for anything else.
func typeParams(obj types.Object) *types.TypeParamList {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin().Type().(*types.Signature).TypeParams()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok {
			return n.Origin().TypeParams()
		}
	}
	return nil
}

// fieldUses records in access the field selectors of f in write
// positions, marks in wrote the fields composite literals set, and hands
// implicit the operand type of every == and != and every argument type
// of an encoding/json call.
func fieldUses(f *ast.File, info *types.Info, access map[*ast.SelectorExpr]fieldAccess, wrote map[types.Object]bool, implicit func(types.Type, bool)) {
	mark := func(e ast.Expr, a fieldAccess) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr: // x.f[k] = v writes x.f
				e = x.X
				continue
			case *ast.SelectorExpr:
				if access[x] != readWrite {
					access[x] = a
				}
			}
			return
		}
	}
	dropped := make(map[*ast.CallExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs, writeOnly)
			}
		case *ast.IncDecStmt:
			mark(n.X, writeOnly)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X, readWrite)
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				dropped[call] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				implicit(info.Types[n.X].Type, false)
			}
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					wrote[origin(info.Uses[kv.Key.(*ast.Ident)])] = true
				} else {
					wrote[origin(st.Field(i))] = true
				}
			}
		case *ast.CallExpr:
			var callee types.Object
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				callee = info.Uses[fun]
			case *ast.SelectorExpr:
				callee = info.Uses[fun.Sel]
			}
			if b, ok := callee.(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") {
				mark(n.Args[0], writeOnly)
			}
			if callee == nil || callee.Pkg() == nil {
				break
			}
			switch callee.Pkg().Path() {
			case "sync/atomic":
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok || info.Selections[sel] == nil || !slices.Contains([]string{"Add", "Store", "Swap", "CompareAndSwap"}, callee.Name()) {
					break
				}
				if dropped[n] {
					mark(sel.X, writeOnly)
				} else {
					mark(sel.X, readWrite)
				}
			case "encoding/json":
				for _, arg := range n.Args {
					implicit(info.Types[arg].Type, true)
				}
			}
		}
		return true
	})
}

// isKnob reports whether a field of type t is an option its zero value
// leaves unchosen: a basic, func, pointer, slice, map, chan or interface
// value. Structs (sync and sync/atomic types among them) and arrays are
// ready to use at zero.
func isKnob(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return false
	}
	return true
}

// origin maps a generic instantiation's method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiverName is the type name of a method's receiver, without the
// pointer or type parameters.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", expr)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
