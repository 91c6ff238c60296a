package locsvc_test

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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestEveryFunctionReached fails on every non-test function outside bench/,
// cmd/ and examples/ that no binary links. The binaries are every main
// package of the module (./cmd/... and ./examples/...), bench/'s main in its
// own module, and a generated main that takes every exported function of
// package locsvc and every exported method of each named type the API
// reaches through signatures, aliases and exported fields. All are built
// with inlining off, so a function called only from an inlined body still
// shows as a symbol; the generated main reaches the build through
// -overlay, so no file of it is checked in.
//
// Exempt are test support that only tests call: internal/oracle,
// internal/clock/manual.go, each package's testsupport.go (every hook there
// names the test that drives it) and the msg.Message marker methods.
func TestEveryFunctionReached(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every main package with inlining off")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin, gen := t.TempDir(), t.TempDir()

	mainSrc := filepath.Join(gen, "main.go")
	if err := os.WriteFile(mainSrc, apiRootsMain(t, goTool, root), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, "internal", "apiroots", "main.go"): mainSrc},
	})
	if err != nil {
		t.Fatal(err)
	}
	overlayFile := filepath.Join(gen, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	goCmd(t, root, goTool, "build", "-gcflags=all=-l", "-overlay", overlayFile,
		"-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...", "./internal/apiroots")
	goCmd(t, filepath.Join(root, "bench"), goTool, "build", "-gcflags=all=-l",
		"-o", filepath.Join(bin, "bench"), ".")

	reached := map[string]bool{}
	binaries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range binaries {
		out := goCmd(t, root, goTool, "tool", "nm", filepath.Join(bin, b.Name()))
		for _, line := range strings.Split(string(out), "\n") {
			if name, ok := textSymbol(line); ok {
				reached[symbolKey(name)] = true
			}
		}
	}
	if len(binaries) < 8 || len(reached) == 0 {
		t.Fatalf("built %d binaries with %d function symbols; want the 6 mains, bench and the API roots", len(binaries), len(reached))
	}

	for _, d := range declaredFuncs(t, root) {
		if reachExempt(d) {
			continue
		}
		hit := false
		for _, k := range d.keys {
			hit = hit || reached[k]
		}
		if !hit {
			t.Errorf("%s: %s is in no binary; delete it, or keep it in its package's testsupport.go naming the test that drives it", d.pos, d.keys[0])
		}
	}
}

// A declaredFunc is one non-test function or method and the symbol names
// (after symbolKey) any of which means a binary links it.
type declaredFunc struct {
	pos  string // file:line relative to the module root
	name string // the function's or method's own name
	keys []string
}

func reachExempt(d declaredFunc) bool {
	file := d.pos[:strings.IndexByte(d.pos, ':')]
	return strings.HasPrefix(file, "internal/oracle/") ||
		file == "internal/clock/manual.go" ||
		filepath.Base(file) == "testsupport.go" ||
		d.name == "isMessage"
}

// declaredFuncs parses every non-test Go file of the root module outside
// bench/, cmd/, examples/ and testdata.
func declaredFuncs(t *testing.T, root string) []declaredFunc {
	t.Helper()
	var out []declaredFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if e.IsDir() {
			switch {
			case path == root:
				return nil
			case rel == "bench" || rel == "cmd" || rel == "examples" ||
				e.Name() == "testdata" || strings.HasPrefix(e.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := "locsvc"
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkgPath += "/" + dir
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			out = append(out, declaredFunc{
				pos:  fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line),
				name: fd.Name.Name,
				keys: funcKeys(pkgPath, fd),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// funcKeys names the symbols that link fd: pkg.F for a function,
// pkg.(*T).M for a pointer-receiver method, and pkg.T.M or its pointer
// wrapper pkg.(*T).M for a value-receiver method. Type parameters are left
// out, as symbolKey drops instantiations.
func funcKeys(pkgPath string, fd *ast.FuncDecl) []string {
	if fd.Recv == nil {
		return []string{pkgPath + "." + fd.Name.Name}
	}
	typ, ptr := fd.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	ptrKey := pkgPath + ".(*" + recv + ")." + fd.Name.Name
	if ptr {
		return []string{ptrKey}
	}
	return []string{pkgPath + "." + recv + "." + fd.Name.Name, ptrKey}
}

// closureSuffix matches the name a closure, a deferred or a go'd call's
// wrapper appends to its enclosing function's symbol.
var closureSuffix = regexp.MustCompile(`\.(func|deferwrap|gowrap)\d+(\.\d+)*$`)

// symbolKey reduces a linked function symbol to the symbol of the
// declaration it comes from: generic instantiations ("[go.shape.struct {
// ... }]", brackets nested) are dropped, and so are the method-value suffix
// "-fm" and any closure suffixes.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	for {
		loc := closureSuffix.FindStringIndex(s)
		if loc == nil {
			return s
		}
		s = s[:loc[0]]
	}
}

// textSymbol returns the name of a function symbol from one line of `go
// tool nm`: "<addr> T <name>", where the name may hold spaces.
func textSymbol(line string) (string, bool) {
	f := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
		return f[2], true
	}
	return "", false
}

// apiRootsMain generates a main package that holds every exported function
// of package locsvc and every exported method of each exported named type
// the API reaches, as method expressions in one slice.
func apiRootsMain(t *testing.T, goTool, root string) []byte {
	t.Helper()
	exports := map[string]string{}
	out := goCmd(t, root, goTool, "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", ".")
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exports[path] = file
		}
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	pkg, err := imp.Import("locsvc")
	if err != nil {
		t.Fatal(err)
	}

	g := &rootsGen{alias: map[*types.Package]string{}, seen: map[*types.TypeName]bool{}}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			if obj.Type().(*types.Signature).TypeParams().Len() == 0 {
				g.roots = append(g.roots, g.qualifier(pkg)+"."+name)
			}
			g.visit(obj.Type())
		case *types.TypeName, *types.Var:
			g.visit(obj.Type())
		}
	}
	sort.Strings(g.roots)

	var b bytes.Buffer
	b.WriteString("// Code generated by TestEveryFunctionReached. DO NOT EDIT.\n\npackage main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n")
	for p, a := range g.alias {
		fmt.Fprintf(&b, "\t%s %q\n", a, p.Path())
	}
	b.WriteString(")\n\nvar roots = []any{\n")
	for _, r := range g.roots {
		fmt.Fprintf(&b, "\t%s,\n", r)
	}
	b.WriteString("}\n\nfunc main() {\n\tif len(os.Args) > 1 {\n\t\tfmt.Println(roots...)\n\t}\n}\n")
	return b.Bytes()
}

type rootsGen struct {
	alias map[*types.Package]string
	seen  map[*types.TypeName]bool
	roots []string
}

func (g *rootsGen) qualifier(p *types.Package) string {
	a, ok := g.alias[p]
	if !ok {
		a = fmt.Sprintf("p%d", len(g.alias))
		g.alias[p] = a
	}
	return a
}

// visit walks t, adding a root for each exported method of each exported,
// non-generic named type it reaches.
func (g *rootsGen) visit(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() == nil || g.seen[obj] {
			return
		}
		g.seen[obj] = true
		for i := 0; i < t.TypeArgs().Len(); i++ {
			g.visit(t.TypeArgs().At(i))
		}
		_, isIface := t.Underlying().(*types.Interface)
		nameable := obj.Exported() && obj.Parent() == obj.Pkg().Scope() &&
			t.TypeParams().Len() == 0 && t.TypeArgs().Len() == 0
		mset := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < mset.Len(); i++ {
			m := mset.At(i).Obj()
			if !m.Exported() {
				continue
			}
			g.visit(m.Type())
			if nameable && !isIface {
				g.roots = append(g.roots, fmt.Sprintf("(*%s).%s", types.TypeString(t, g.qualifier), m.Name()))
			}
		}
		g.visit(t.Underlying())
	case *types.Pointer:
		g.visit(t.Elem())
	case *types.Slice:
		g.visit(t.Elem())
	case *types.Array:
		g.visit(t.Elem())
	case *types.Chan:
		g.visit(t.Elem())
	case *types.Map:
		g.visit(t.Key())
		g.visit(t.Elem())
	case *types.Signature:
		g.visit(t.Params())
		g.visit(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			g.visit(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				g.visit(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				g.visit(m.Type())
			}
		}
	}
}

func goCmd(t *testing.T, dir, goTool string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(goTool, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}

func TestSymbolKeyMatchesDeclaration(t *testing.T) {
	cases := []struct {
		name, pkg, decl, sym string
		match                bool
	}{
		{"generic method, a shape struct with spaces, dots and parentheses", "locsvc/internal/spatial",
			"func (h *heapOf[T]) len() int { return 0 }",
			"locsvc/internal/spatial.(*heapOf[go.shape.struct { locsvc/internal/spatial.cur locsvc/internal/spatial.Cursor; locsvc/internal/spatial.open func() locsvc/internal/spatial.Cursor }]).len", true},
		{"generic function, nested brackets with spaces", "locsvc/internal/spatial",
			"func heapOf[T any](less func(a, b T) bool) *MinHeap[T] { return nil }",
			"locsvc/internal/spatial.heapOf[go.shape.struct { Item locsvc/internal/spatial.entry[go.shape.int]; D float64 }]", true},
		{"generic method, nested brackets", "locsvc/internal/spatial",
			"func (h *MinHeap[T]) Push(x T) {}",
			"locsvc/internal/spatial.(*MinHeap[go.shape.struct { A []int; B map[string]int }]).Push", true},
		{"generic method instantiated with a named type", "locsvc/internal/spatial",
			"func (h *MinHeap[T]) Len() int { return 0 }",
			"locsvc/internal/spatial.(*MinHeap[locsvc/internal/store.tierNearestItem]).Len", true},
		{"generic method, two type parameters", "locsvc/internal/spatial",
			"func (p Pair[K, V]) Key() K { var k K; return k }",
			"locsvc/internal/spatial.Pair[go.shape.string,go.shape.struct { X float64 }].Key", true},
		{"value receiver", "locsvc/internal/geo",
			"func (r Rect) Empty() bool { return false }",
			"locsvc/internal/geo.Rect.Empty", true},
		{"value receiver linked only as its pointer wrapper", "locsvc/internal/geo",
			"func (r Rect) Empty() bool { return false }",
			"locsvc/internal/geo.(*Rect).Empty", true},
		{"pointer receiver is not its value form", "locsvc/internal/geo",
			"func (r *Rect) Grow() {}",
			"locsvc/internal/geo.Rect.Grow", false},
		{"closure", "locsvc/internal/server",
			"func (s *Server) handle() {}",
			"locsvc/internal/server.(*Server).handle.func2", true},
		{"nested closure", "locsvc/internal/server",
			"func (s *Server) handle() {}",
			"locsvc/internal/server.(*Server).handle.func2.1", true},
		{"deferwrap", "locsvc/internal/store",
			"func replay() {}",
			"locsvc/internal/store.replay.deferwrap1", true},
		{"gowrap inside a closure", "locsvc/internal/store",
			"func replay() {}",
			"locsvc/internal/store.replay.func1.gowrap2", true},
		{"method value", "locsvc/internal/transport",
			"func (u *UDP) readLoop() {}",
			"locsvc/internal/transport.(*UDP).readLoop-fm", true},
		{"another function with the same prefix", "locsvc/internal/geo",
			"func R() {}",
			"locsvc/internal/geo.Rect", false},
		{"same name in another package", "locsvc/internal/geo",
			"func R() {}",
			"locsvc/internal/core.R", false},
	}
	for _, c := range cases {
		f, err := parser.ParseFile(token.NewFileSet(), "x.go", "package p\n"+c.decl, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		keys := funcKeys(c.pkg, f.Decls[0].(*ast.FuncDecl))
		got := false
		for _, k := range keys {
			got = got || k == symbolKey(c.sym)
		}
		if got != c.match {
			t.Errorf("%s: %q → %q against %q: match %v, want %v", c.name, c.sym, symbolKey(c.sym), keys, got, c.match)
		}
	}
}
