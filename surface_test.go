package blockbench

import (
	"bytes"
	"flag"
	"fmt"
	"go/types"
	"os"
	"reflect"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite "+surfacePath)

// surfacePath holds the public surface as TestPublicSurface lists it. A
// change that grows or shrinks the surface rewrites it,
//
//	go test . -run TestPublicSurface -update-surface
//
// so the diff shows what callers gain or lose.
const surfacePath = "testdata/surface.txt"

// TestPublicSurface pins what the module promises its callers: every
// exported identifier of the root package with its signature, a type's
// exported fields or interface methods and its method set, every field
// of the JSONL schema (report.Report and report.Snapshot, and the
// structs they hold) with its Go type, and every -popt key per preset
// and -wopt key per workload. It reads the type information of
// TestChooserRule's scan, so the two checks share one type-check.
func TestPublicSurface(t *testing.T) {
	scan, err := moduleScan()
	if err != nil {
		t.Fatal(err)
	}
	root, rep := scan.pkgs["blockbench"], scan.pkgs["blockbench/report"]
	if root == nil || rep == nil {
		t.Fatal("the scan type-checked no blockbench or blockbench/report package")
	}
	got := publicSurface(root, rep) + optionSurface(t)
	if *updateSurface {
		if err := os.WriteFile(surfacePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfacePath)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		diff := lineDiff(string(want), got)
		if diff == "" {
			diff = "(same lines, another order)\n"
		}
		t.Errorf("public surface differs from %s (- file, + code); if the change is meant, rerun with -update-surface and say why in CHANGES.md:\n%s", surfacePath, diff)
	}
}

// publicSurface lists root's exported declarations and the JSONL fields
// of rep's Report and Snapshot, one per line, each line led by the name
// it belongs to.
func publicSurface(root, rep *types.Package) string {
	qual := func(p *types.Package) string {
		if p == root {
			return ""
		}
		return p.Name()
	}
	str := func(t types.Type) string { return types.TypeString(t, qual) }
	var b strings.Builder
	line := func(name, format string, args ...any) {
		fmt.Fprintf(&b, "%s\t%s\n", name, fmt.Sprintf(format, args...))
	}
	scope := root.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			decl := types.ObjectString(obj, qual)
			if c, ok := obj.(*types.Const); ok {
				decl += " = " + c.Val().ExactString()
			}
			line(name, "%s", decl)
			continue
		}
		under := tn.Type().Underlying()
		kind := str(under)
		switch under.(type) {
		case *types.Struct:
			kind = "struct"
		case *types.Interface:
			kind = "interface"
		}
		if tn.IsAlias() {
			line(name, "type %s = %s %s", name, str(tn.Type()), kind)
		} else {
			line(name, "type %s %s", name, kind)
		}
		switch u := under.(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() {
					line(name+"."+f.Name(), "field %s", str(f.Type()))
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				m := u.Method(i)
				line(name+"."+m.Name(), "method %s%s", m.Name(), signature(m, qual))
			}
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < mset.Len(); i++ {
			m := mset.At(i).Obj().(*types.Func)
			if !m.Exported() {
				continue
			}
			recv := name
			if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				recv = "*" + name
			}
			line(name+"."+m.Name(), "func (%s) %s%s", recv, m.Name(), signature(m, qual))
		}
	}
	seen := make(map[*types.Named]bool)
	for _, name := range []string{"Report", "Snapshot"} {
		jsonFields(&b, rep.Scope().Lookup(name).Type().(*types.Named), qual, seen)
	}
	return b.String()
}

// optionSurface lists every -popt key each preset consults and every
// -wopt key each workload consults, one "-popt <preset>" or "-wopt
// <workload>" line per key. The keys are the ones the unknown-key error
// lists, the decoder's consulted set, so no list is kept by hand.
func optionSurface(t *testing.T) string {
	t.Helper()
	known := func(what string, err error) []string {
		if err == nil {
			t.Fatalf("%s accepted an unknown key", what)
		}
		_, keys, found := strings.Cut(err.Error(), "(known: [")
		if !found {
			t.Fatalf("%s: error %q lists no known keys", what, err)
		}
		return strings.Fields(strings.TrimSuffix(keys, "])"))
	}
	var b strings.Builder
	unknown := map[string]string{"no-such-key": "1"}
	for _, kind := range Platforms() {
		c, err := NewCluster(ClusterConfig{Kind: kind, Nodes: 4, Options: unknown}, 1)
		if err == nil {
			c.Stop()
		}
		for _, k := range known(string(kind), err) {
			fmt.Fprintf(&b, "-popt %s\t%s\n", kind, k)
		}
	}
	for _, name := range Workloads() {
		_, err := NewWorkload(name, unknown)
		for _, k := range known(name, err) {
			fmt.Fprintf(&b, "-wopt %s\t%s\n", name, k)
		}
	}
	return b.String()
}

// signature is a function's parameters and results without "func".
func signature(f *types.Func, qual types.Qualifier) string {
	var b bytes.Buffer
	types.WriteSignature(&b, f.Type().(*types.Signature), qual)
	return b.String()
}

// jsonFields lists the JSON name and Go type of each field that
// encoding/json writes for the struct type n, embedded structs inlined,
// and then, once each, the fields of the module's struct types those
// fields hold.
func jsonFields(b *strings.Builder, n *types.Named, qual types.Qualifier, seen map[*types.Named]bool) {
	if seen[n] {
		return
	}
	seen[n] = true
	name := types.TypeString(n, qual)
	var nested []*types.Named
	var walk func(st *types.Struct)
	walk = func(st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			tag, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
			if tag == "-" || !f.Exported() && !f.Embedded() {
				continue
			}
			if inner, ok := f.Type().Underlying().(*types.Struct); ok && f.Embedded() && tag == "" {
				walk(inner)
				continue
			}
			if tag == "" {
				tag = f.Name()
			}
			fmt.Fprintf(b, "json %s.%s\t%s\n", name, tag, types.TypeString(f.Type(), qual))
			if m := moduleStruct(f.Type()); m != nil {
				nested = append(nested, m)
			}
		}
	}
	walk(n.Underlying().(*types.Struct))
	for _, m := range nested {
		jsonFields(b, m, qual, seen)
	}
}

// moduleStruct returns the named struct type of this module that a value
// of type t holds, through pointers, slices, arrays and map values; nil
// when it holds none.
func moduleStruct(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			if _, ok := u.Underlying().(*types.Struct); ok && u.Obj().Pkg() != nil && strings.HasPrefix(u.Obj().Pkg().Path(), "blockbench") {
				return u
			}
			return nil
		default:
			return nil
		}
	}
}

// lineDiff lists the lines only in want (-) and only in got (+), in the
// order they appear; "" when the two hold the same lines.
func lineDiff(want, got string) string {
	count := make(map[string]int)
	for _, l := range strings.SplitAfter(got, "\n") {
		count[l]++
	}
	var out strings.Builder
	for _, l := range strings.SplitAfter(want, "\n") {
		if count[l] > 0 {
			count[l]--
		} else if l != "" {
			out.WriteString("- " + l)
		}
	}
	for _, l := range strings.SplitAfter(got, "\n") {
		if count[l] > 0 {
			count[l]--
			out.WriteString("+ " + l)
		}
	}
	return out.String()
}
