package gen

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"locsvc/internal/geo"
)

func small(s Spec) Spec { return s.Scaled(2000, 100) }

// The op stream is a pure function of (workload, seed).
func TestHashBySeed(t *testing.T) {
	for _, spec := range Workloads() {
		spec := small(spec)
		a, b := Hash(spec, 1, 5000), Hash(spec, 1, 5000)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %x and %x", spec.Name, a, b)
		}
		if c := Hash(spec, 2, 5000); c == a {
			t.Errorf("%s: seeds 1 and 2 both hashed to %x", spec.Name, a)
		}
	}
}

// Every generated position lies strictly inside the root area on the
// position grid, every query enters at an existing leaf, jittered updates
// stay on the home leaf, and Cross marks exactly the leaf changes.
func TestOpsAreWellFormed(t *testing.T) {
	for _, spec := range Workloads() {
		spec := small(spec)
		g := New(spec, 7)
		root := geo.R(0, 0, spec.Side, spec.Side)
		onGrid := func(p geo.Point) bool {
			return p.X*1024 == float64(int64(p.X*1024)) && p.Y*1024 == float64(int64(p.Y*1024))
		}
		at := append([]geo.Point(nil), g.Initial()...)
		for _, p := range at {
			if !root.Contains(p) || !onGrid(p) {
				t.Fatalf("%s: start position %v outside the area or off the grid", spec.Name, p)
			}
		}
		kinds := map[Kind]int{}
		crossings := 0
		for i := 0; i < Streams; i++ {
			s := g.Stream(i)
			var op Op
			for k := 0; k < 20000; k++ {
				s.Next(&op)
				kinds[op.Kind]++
				if op.Entry < 0 || op.Entry >= spec.Leaves() {
					t.Fatalf("%s: op enters at leaf %d of %d", spec.Name, op.Entry, spec.Leaves())
				}
				switch op.Kind {
				case Update:
					if op.Obj%Streams != i {
						t.Fatalf("%s: stream %d updates object %d", spec.Name, i, op.Obj)
					}
					if !root.Contains(op.Pos) || !onGrid(op.Pos) {
						t.Fatalf("%s: update to %v outside the area or off the grid", spec.Name, op.Pos)
					}
					before, _ := spec.LeafOf(at[op.Obj])
					after, _ := spec.LeafOf(op.Pos)
					if op.Cross != (before != after) {
						t.Fatalf("%s: update %v -> %v has Cross=%v", spec.Name, at[op.Obj], op.Pos, op.Cross)
					}
					if op.Cross {
						crossings++
						if spec.model != modelCommute {
							t.Fatalf("%s: update of object %d leaves its home leaf", spec.Name, op.Obj)
						}
					}
					at[op.Obj] = op.Pos
				case RangeQuery:
					if !root.ContainsRect(op.Rect) || op.Rect.Empty() {
						t.Fatalf("%s: range query %v not inside the area", spec.Name, op.Rect)
					}
				case NNQuery:
					if !root.Contains(op.Pos) {
						t.Fatalf("%s: neighbour query at %v", spec.Name, op.Pos)
					}
				}
			}
		}
		total := float64(20000 * Streams)
		for kind, pct := range map[Kind]int{PosQuery: spec.Mix.PosQ, RangeQuery: spec.Mix.RangeQ, NNQuery: spec.Mix.NNQ} {
			if got := 100 * float64(kinds[kind]) / total; got < float64(pct)-1.5 || got > float64(pct)+1.5 {
				t.Errorf("%s: kind %d is %.1f%% of the ops, want %d%%", spec.Name, kind, got, pct)
			}
		}
		if spec.model == modelCommute {
			if share := float64(crossings) / total; share < 0.02 || share > 0.07 {
				t.Errorf("%s: %.1f%% of updates cross a leaf boundary, want 3-5%%", spec.Name, 100*share)
			}
		}
	}
}

// An events walker's hops alternate between its cell's centre and the
// corridor beside it, and nobody else ever stands inside a cell.
func TestTripwiresAreOnlyEnteredByTheirWalker(t *testing.T) {
	spec, err := Lookup("udp_events")
	if err != nil {
		t.Fatal(err)
	}
	spec = small(spec)
	g := New(spec, 3)
	inside := func(p geo.Point) int {
		for k, cell := range spec.Tripwires {
			if cell.Enlarge(1).ContainsClosed(p) {
				return k
			}
		}
		return -1
	}
	for i, p := range g.Initial() {
		if k := inside(p); k >= 0 {
			t.Fatalf("object %d starts inside tripwire %d", i, k)
		}
	}
	state := make(map[int]bool)
	for i := 0; i < Streams; i++ {
		s := g.Stream(i)
		var op Op
		for k := 0; k < 50000; k++ {
			s.Next(&op)
			if op.Kind != Update {
				continue
			}
			cell := inside(op.Pos)
			if op.Trip < 0 {
				if cell >= 0 {
					t.Fatalf("background update of object %d lands in tripwire %d", op.Obj, cell)
				}
				continue
			}
			if op.Fired == state[op.Trip] {
				t.Fatalf("tripwire %d flipped to %v twice", op.Trip, op.Fired)
			}
			state[op.Trip] = op.Fired
			if want := map[bool]int{true: op.Trip, false: -1}[op.Fired]; cell != want {
				t.Fatalf("walker hop with Fired=%v lands in cell %d, want %d", op.Fired, cell, want)
			}
		}
	}
	if len(state) == 0 {
		t.Fatal("no walker hop generated")
	}
}

// The rig learns about a workload only through Deploy, which must carry
// neither a name nor a seed.
func TestDeployCarriesNoNameOrSeed(t *testing.T) {
	var check func(reflect.Type, string)
	check = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.String:
			t.Errorf("%s is a string: a workload name could reach the rig", path)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if n := strings.ToLower(f.Name); strings.Contains(n, "seed") || strings.Contains(n, "name") {
					t.Errorf("%s.%s looks like a seed or a name", path, f.Name)
				}
				check(f.Type, path+"."+f.Name)
			}
		case reflect.Slice, reflect.Array, reflect.Pointer:
			check(typ.Elem(), path+"[]")
		}
	}
	check(reflect.TypeOf(Deploy{}), "Deploy")
}

// imports returns the import paths of the non-test Go files in dir.
func imports(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	out := make(map[string]bool)
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			out[path] = true
		}
	}
	return out
}

// No workload name or seed reaches the service: the package that knows
// them imports nothing of the service but its geometry types, and the
// packages that do talk to the service never touch the generator's
// constructors, a Spec, or anything called seed.
func TestSeedAndNameStayInGen(t *testing.T) {
	for path := range imports(t, ".") {
		if strings.HasPrefix(path, "locsvc/") && path != "locsvc/internal/geo" {
			t.Errorf("gen imports %s", path)
		}
	}
	forbidden := map[string]bool{"New": true, "Lookup": true, "Workloads": true, "Spec": true, "Hash": true, "Gen": true}
	for _, dir := range []string{"../rig", "../tracenet"} {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if strings.Contains(strings.ToLower(n.Name), "seed") {
						t.Errorf("%s mentions %s", file, n.Name)
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "gen" && forbidden[n.Sel.Name] {
						t.Errorf("%s uses gen.%s", file, n.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
