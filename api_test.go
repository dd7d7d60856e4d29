package dta

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// update rewrites the golden files of TestAPISurface and TestClosureSize
// (testdata/api.golden, testdata/closure.golden) instead of comparing.
var update = flag.Bool("update", false, "rewrite the testdata golden files of the tests that run")

const apiGolden = "testdata/api.golden"

// TestAPISurface pins the exported surface of package dta, one sorted
// signature per line, against testdata/api.golden (the Go repository's
// api/ files are the model). Every exported const, var, func, type,
// struct field and method is listed, methods promoted from embedded
// unexported types included. An alias of a type in this module also
// lists that type's exported fields and methods, one level deep, so a
// change behind an alias shows too. A change to the surface is
// deliberate: rewrite the file with
//
//	go test -run TestAPISurface . -update
//
// and explain the diff in the change's description.
func TestAPISurface(t *testing.T) {
	got, err := apiSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, apiGolden, "exported surface", got)
}

// checkGolden compares got, one line each, with the golden file at path
// and reports the lines pinned there but gone (-) and the lines new
// (+). With -update it rewrites the file instead.
func checkGolden(t *testing.T, path, what string, got []string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with: go test -run %s . -update)", err, t.Name())
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var diff []string
	for _, l := range want {
		if !slices.Contains(got, l) {
			diff = append(diff, "-"+l)
		}
	}
	for _, l := range got {
		if !slices.Contains(want, l) {
			diff = append(diff, "+"+l)
		}
	}
	if len(diff) > 0 {
		t.Errorf("%s differs from %s (- pinned, + now); if intended, run go test -run %s . -update\n%s",
			what, path, t.Name(), strings.Join(diff, "\n"))
	}
}

// apiSurface renders the exported surface of the package in dir, sorted.
func apiSurface(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkg, imports, err := parseDoc(fset, dir)
	if err != nil {
		return nil, err
	}
	r := apiRenderer{fset: fset}
	for _, c := range pkg.Consts {
		r.values("const", c)
	}
	for _, v := range pkg.Vars {
		r.values("var", v)
	}
	for _, f := range pkg.Funcs {
		r.add("func %s%s", f.Name, r.signature(f.Decl.Type))
	}
	for _, typ := range pkg.Types {
		for _, c := range typ.Consts {
			r.values("const", c)
		}
		for _, v := range typ.Vars {
			r.values("var", v)
		}
		for _, f := range typ.Funcs {
			r.add("func %s%s", f.Name, r.signature(f.Decl.Type))
		}
		spec := typeSpec(typ)
		if spec.Assign == 0 {
			r.typ("type "+typ.Name, typ, spec)
			continue
		}
		head := fmt.Sprintf("type %s = %s", typ.Name, r.expr(spec.Type))
		r.add("%s", head)
		sel, ok := spec.Type.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		x, _ := sel.X.(*ast.Ident)
		if x == nil {
			continue
		}
		p, ok := imports[x.Name]
		if !ok {
			return nil, fmt.Errorf("%s: no import for %s", head, x.Name)
		}
		rel, ok := strings.CutPrefix(p, "dta/")
		if !ok {
			continue // outside this module
		}
		ipkg, _, err := parseDoc(fset, filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		i := slices.IndexFunc(ipkg.Types, func(it *doc.Type) bool { return it.Name == sel.Sel.Name })
		if i < 0 {
			return nil, fmt.Errorf("%s: type not found in %s", head, p)
		}
		r.members(head, head+", ", ipkg.Types[i], typeSpec(ipkg.Types[i]))
	}
	slices.Sort(r.lines)
	return r.lines, nil
}

// parseDoc parses the non-test Go files that build in dir and returns
// their exported documentation and, for resolving aliases, the path of
// every package they import by the name they import it under.
func parseDoc(fset *token.FileSet, dir string) (*doc.Package, map[string]string, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	imports := map[string]string{}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
	}
	pkg, err := doc.NewFromFiles(fset, files, bp.ImportPath)
	return pkg, imports, err
}

// typeSpec returns the spec that declares t within its declaration group.
func typeSpec(t *doc.Type) *ast.TypeSpec {
	for _, s := range t.Decl.Specs {
		if ts := s.(*ast.TypeSpec); ts.Name.Name == t.Name {
			return ts
		}
	}
	panic("go/doc type without its spec: " + t.Name)
}

type apiRenderer struct {
	fset  *token.FileSet
	lines []string
}

func (r *apiRenderer) add(format string, args ...any) {
	r.lines = append(r.lines, "pkg dta, "+fmt.Sprintf(format, args...))
}

// expr prints a node on one line.
func (r *apiRenderer) expr(n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, r.fset, n); err != nil {
		panic(err)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}

// signature prints a function type without its parameter names, so a
// rename is not a surface change.
func (r *apiRenderer) signature(ft *ast.FuncType) string {
	bare := func(fl *ast.FieldList) *ast.FieldList {
		if fl == nil {
			return nil
		}
		out := &ast.FieldList{}
		for _, f := range fl.List {
			for range max(len(f.Names), 1) {
				out.List = append(out.List, &ast.Field{Type: f.Type})
			}
		}
		return out
	}
	return strings.TrimPrefix(r.expr(&ast.FuncType{Params: bare(ft.Params), Results: bare(ft.Results)}), "func")
}

// values renders a const or var group, one line per exported name.
func (r *apiRenderer) values(kind string, v *doc.Value) {
	for _, s := range v.Decl.Specs {
		vs := s.(*ast.ValueSpec)
		for i, n := range vs.Names {
			if !n.IsExported() {
				continue
			}
			line := kind + " " + n.Name
			if vs.Type != nil {
				line += " " + r.expr(vs.Type)
			}
			if i < len(vs.Values) {
				line += " = " + r.expr(vs.Values[i])
			}
			r.add("%s", line)
		}
	}
}

// typ renders a defined type's head line, then its members.
func (r *apiRenderer) typ(head string, t *doc.Type, spec *ast.TypeSpec) {
	if _, ok := spec.Type.(*ast.StructType); ok {
		head += " struct"
	} else {
		head += " " + r.expr(spec.Type) // an interface prints whole
	}
	r.add("%s", head)
	r.members(head, "", t, spec)
}

// members renders t's exported struct fields, each prefixed with head,
// and its methods, each prefixed with recvPrefix.
func (r *apiRenderer) members(head, recvPrefix string, t *doc.Type, spec *ast.TypeSpec) {
	if st, ok := spec.Type.(*ast.StructType); ok {
		for _, f := range st.Fields.List {
			if len(f.Names) == 0 {
				r.add("%s, embedded %s", head, r.expr(f.Type))
				continue
			}
			typ := r.expr(f.Type)
			if ft, ok := f.Type.(*ast.FuncType); ok {
				typ = "func" + r.signature(ft)
			}
			for _, n := range f.Names {
				if n.IsExported() {
					r.add("%s, %s %s", head, n.Name, typ)
				}
			}
		}
	}
	for _, m := range t.Methods {
		r.add("%smethod (%s) %s%s", recvPrefix, m.Recv, m.Name, r.signature(m.Decl.Type))
	}
}
