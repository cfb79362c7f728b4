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
	"testing"
	"time"
)

// TestChooserRule is the chooser rule (DESIGN.md § What earns its place)
// as a check: every function, method and package-level type, const and
// var of this module is used by some non-test code, here or in bench/,
// or DESIGN.md's allowlist names it with a reason. A table row the scan
// no longer reports is stale and fails too.
func TestChooserRule(t *testing.T) {
	start := time.Now()
	unused, err := chooserScan(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scan: %d names unused outside tests, in %v", len(unused), time.Since(start).Round(time.Millisecond))
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
// planted unused function is all it reports, past the method, generic
// and cross-module uses it must see, and the allowlist check fails on
// that function and on a stale row.
func TestChooserScanFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"lib/go.mod": "module fix\n\ngo 1.22\n",
		"lib/fix.go": `package fix

import "container/heap"

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

func Entry() int {
	h := &ints{3, 1}
	heap.Init(h)
	var v any = box{}
	if a, ok := v.(interface{ Apply() }); ok {
		a.Apply()
	}
	var l list[int]
	l.add(1)
	return len(l.items)
}
`,
		"lib/fix_test.go": "package fix\n\nimport \"testing\"\n\nfunc TestUnused(t *testing.T) { Unused() }\n",
		"caller/go.mod":   "module caller\n\ngo 1.22\n\nrequire fix v0.0.0\n\nreplace fix => ../lib\n",
		"caller/main.go":  "package main\n\nimport \"fix\"\n\nfunc main() {\n\tfix.CallerOnly()\n\tfix.Entry()\n}\n",
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
	unused, err := chooserScan(filepath.Join(dir, "lib"), filepath.Join(dir, "caller"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(unused, []string{"Unused"}) {
		t.Fatalf("scan lists %v, want [Unused]", unused)
	}
	if problems := chooserDiff(unused, map[string]bool{}); len(problems) != 1 || !strings.Contains(problems[0], "Unused") {
		t.Errorf("no allowlist: problems %q, want one naming Unused", problems)
	}
	if problems := chooserDiff(unused, map[string]bool{"Unused": true, "Gone": true}); len(problems) != 1 || !strings.Contains(problems[0], "Gone") {
		t.Errorf("stale row Gone: problems %q, want one naming Gone", problems)
	}
}

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
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct {
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
func chooserScan(dirs ...string) ([]string, error) {
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
	var decls []decl
	used := make(map[types.Object]bool)
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
	for i, dir := range dirs {
		cmd := exec.Command("go", "list", "-json", "-export", "-deps", "./...", "container/heap", "flag", "fmt", "sort")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
				continue
			}
			if p.Module == nil {
				return nil, fmt.Errorf("%s: package outside any module", p.ImportPath)
			}
			if i == 0 && p.Module.Main {
				mainPath = p.Module.Path
			}
			if _, ok := checked[p.ImportPath]; ok {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
				Types:      make(map[ast.Expr]types.TypeAndValue),
			}
			pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
			if err != nil {
				return nil, err
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
			for _, sel := range info.Selections {
				used[origin(sel.Obj())] = true
			}
			for _, tv := range info.Types {
				if tv.IsType() {
					addIface(tv.Type) // named interfaces' bodies are type expressions too
				}
			}
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					named = append(named, tn.Type())
				}
			}
		}
	}

	for _, ref := range [][2]string{{"container/heap", "Interface"}, {"sort", "Interface"}, {"flag", "Value"}, {"fmt", "Stringer"}} {
		pkg, err := imp.Import(ref[0])
		if err != nil {
			return nil, err
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
	sort.Strings(unused)
	return unused, nil
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
