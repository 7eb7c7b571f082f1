package jouleguard_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the exported identifiers under internal/ that no
// non-test file references yet, and the exported struct fields that no
// non-test code sets, each with the reason it stays. A reason is either the
// ROADMAP item whose change will give it a user, or, for a fake that tests
// in another package need (and which therefore cannot live in a _test.go
// file), "test fake used by <file>". Keys are the declaring package's
// directory under internal/, then the receiver type for a method or the
// struct type for a field, then the name.
var testOnlyAllowed = map[string]string{
	// The loop analysis behind TestRobustnessMargin, which the horizon-aware
	// bound for short sessions will derive its pole schedule from.
	"control.AnalyzeStep":                   "ROADMAP item 8",
	"control.ApplicationPlant":              "ROADMAP item 8",
	"control.ClosedLoop":                    "ROADMAP item 8",
	"control.DesignPole":                    "ROADMAP item 8",
	"control.FrequencyResponse":             "ROADMAP item 8",
	"control.NewTransferFunction":           "ROADMAP item 8",
	"control.PIController":                  "ROADMAP item 8",
	"control.RobustnessMargin":              "ROADMAP item 8",
	"control.TransferFunction.DCGain":       "ROADMAP item 8",
	"control.TransferFunction.Stable":       "ROADMAP item 8",
	"control.TransferFunction.StepResponse": "ROADMAP item 8",
	// The seeded network fabric the shared test rig will partition
	// fleets with.
	"faults.NewFabric":         "ROADMAP item 4",
	"faults.Fabric.Heal":       "ROADMAP item 4",
	"faults.Fabric.Partition":  "ROADMAP item 4",
	"faults.Fabric.SetDefault": "ROADMAP item 4",
	"faults.Fabric.SetRules":   "ROADMAP item 4",
	"faults.Fabric.Stats":      "ROADMAP item 4",
	"faults.NetRules.DropP":    "ROADMAP item 4",
	"faults.NetRules.DupP":     "ROADMAP item 4",
	// Fakes that tests of other packages build on.
	"faults.NewFakePowercap":         "test fake used by internal/measure/service_test.go",
	"faults.FakePowercap.TrueJoules": "test fake used by internal/measure/service_test.go",
	"par.SetWorkers":                 "test fake used by internal/experiments/determinism_test.go",
}

// stdlibMethods are method names the standard library calls through its
// own interfaces, so a method with one of these names has a user that no
// selector in this repository shows.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "Format": true,
	"Read": true, "Write": true, "Close": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "Lock": true, "Unlock": true,
	"Timeout": true, "Temporary": true,
	"Int63": true, "Uint64": true, "Seed": true, // rand.Source64, through rand.New
}

// goFile is one parsed source file of the module (bench/ included).
type goFile struct {
	path string // slash-separated, relative to the repository root
	dir  string // "." for the root package
	test bool
	ast  *ast.File
}

// declared is one top-level name a non-test file declares.
type declared struct {
	key  string // allowlist key
	pkg  string // declaring directory
	recv string // receiver type, "" for a package-level name
	name string
	pos  string
}

func parseModule(t *testing.T, fset *token.FileSet) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		files = append(files, goFile{path: p, dir: path.Dir(p), test: strings.HasSuffix(name, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// importPath maps a directory of the root module to its import path.
func importPath(dir string) string {
	if dir == "." {
		return "jouleguard"
	}
	return "jouleguard/" + dir
}

// recvName is the type name of a method's receiver.
func recvName(fd *ast.FuncDecl) string {
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// topLevel lists the names a file declares at top level, with exported
// set to select exported names (all kinds) or unexported functions.
func topLevel(f goFile, fset *token.FileSet, exported bool) []declared {
	var out []declared
	add := func(recv string, id *ast.Ident) {
		if id.Name == "_" || ast.IsExported(id.Name) != exported {
			return
		}
		key := strings.TrimPrefix(f.dir, "internal/") + "."
		if recv != "" {
			key += recv + "."
		}
		pos := fset.Position(id.Pos())
		out = append(out, declared{key: key + id.Name, pkg: f.dir, recv: recv, name: id.Name, pos: fmt.Sprintf("%s:%d", f.path, pos.Line)})
	}
	for _, d := range f.ast.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				if exported {
					add(recvName(d), d.Name)
				}
				continue
			}
			if !exported && (d.Name.Name == "init" || d.Name.Name == "main") {
				continue
			}
			add("", d.Name)
		case *ast.GenDecl:
			if !exported {
				continue
			}
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add("", s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add("", n)
					}
				}
			}
		}
	}
	return out
}

// uses collects what the non-test files reference: package-level names as
// "dir.Name" (bare in their own package, qualified elsewhere), every
// selector or interface method name as ".Name", which is what a method
// call matches, and as "api dir.Type" each type the root package exports
// under an alias, whose methods are the library's API. A declaration's own
// name, a method's receiver and a function's calls to itself are not
// references.
func uses(files []goFile) map[string]bool {
	dirOf := map[string]string{}
	for _, f := range files {
		dirOf[importPath(f.dir)] = f.dir
	}
	used := map[string]bool{}
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			if dir, ok := dirOf[p]; ok {
				imports[name] = dir
			}
		}
		var self string
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				self = ""
				if x.Recv == nil {
					self = x.Name.Name
				}
				ast.Inspect(x.Type, visit)
				if x.Body != nil {
					ast.Inspect(x.Body, visit)
				}
				return false
			case *ast.TypeSpec:
				if sel, ok := x.Type.(*ast.SelectorExpr); ok && x.Assign.IsValid() && f.dir == "." && ast.IsExported(x.Name.Name) {
					if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
						used["api "+imports[id.Name]+"."+sel.Sel.Name] = true
					}
				}
				ast.Inspect(x.Type, visit)
				if x.TypeParams != nil {
					ast.Inspect(x.TypeParams, visit)
				}
				return false
			case *ast.ValueSpec:
				if x.Type != nil {
					ast.Inspect(x.Type, visit)
				}
				for _, v := range x.Values {
					ast.Inspect(v, visit)
				}
				return false
			case *ast.Field:
				if x.Type != nil {
					ast.Inspect(x.Type, visit)
				}
				return false
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, n := range m.Names {
						used["."+n.Name] = true
					}
					ast.Inspect(m.Type, visit)
				}
				return false
			case *ast.SelectorExpr:
				used["."+x.Sel.Name] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if dir, ok := imports[id.Name]; ok {
						used[dir+"."+x.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				if x.Name != self {
					used[f.dir+"."+x.Name] = true
				}
			}
			return true
		}
		for _, d := range f.ast.Decls {
			self = ""
			ast.Inspect(d, visit)
		}
	}
	return used
}

// structFields lists the exported fields of the exported struct types a
// file declares, keyed "pkg.Type.Field", except the fields with a json
// tag, which a decoder sets. recv holds the struct's name.
func structFields(f goFile, fset *token.FileSet) []declared {
	var out []declared
	for _, d := range f.ast.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, s := range gd.Specs {
			ts := s.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			for _, fl := range st.Fields.List {
				if fl.Tag != nil {
					if v, ok := reflect.StructTag(strings.Trim(fl.Tag.Value, "`")).Lookup("json"); ok && v != "-" {
						continue
					}
				}
				for _, id := range fl.Names {
					if !id.IsExported() {
						continue
					}
					key := strings.TrimPrefix(f.dir, "internal/") + "." + ts.Name.Name + "." + id.Name
					out = append(out, declared{key: key, pkg: f.dir, recv: ts.Name.Name, name: id.Name, pos: fmt.Sprintf("%s:%d", f.path, fset.Position(id.Pos()).Line)})
				}
			}
		}
	}
	return out
}

// fieldWrites collects the names of the fields non-test files write: a
// composite-literal key, the selector an assignment, an op=, a ++ or --
// or an & takes (through index, star and paren expressions, so
// x.F[i] = v writes F). Like uses, it matches names, not types.
func fieldWrites(files []goFile) map[string]bool {
	written := map[string]bool{}
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			written[x.Sel.Name] = true
		case *ast.IndexExpr:
			target(x.X)
		case *ast.StarExpr:
			target(x.X)
		case *ast.ParenExpr:
			target(x.X)
		}
	}
	for _, f := range files {
		if f.test {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					written[id.Name] = true
				}
			case *ast.AssignStmt:
				for _, l := range x.Lhs {
					target(l)
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					target(x.X)
				}
			}
			return true
		})
	}
	return written
}

// findings is what scan reports about a set of files.
type findings struct {
	unused      []declared      // exported under internal/, no non-test user, not allowlisted
	allowedUsed []declared      // allowlisted, but a non-test file references it now
	unexported  []declared      // unexported top-level functions outside bench/ their package never calls
	unset       []declared      // exported fields under internal/ no non-test code writes, not allowlisted
	allowedSet  []declared      // allowlisted fields a non-test file writes now
	declared    map[string]bool // the allowlist keys of every exported name and field under internal/
}

// scan checks the non-test files among files against allow. Names are
// matched, not types, so a method counts as used when any selector or
// interface shares its name.
func scan(files []goFile, fset *token.FileSet, allow map[string]string) findings {
	used := uses(files)
	written := fieldWrites(files)
	r := findings{declared: map[string]bool{}}
	for _, f := range files {
		if f.test {
			continue
		}
		if strings.HasPrefix(f.dir, "internal/") {
			for _, d := range structFields(f, fset) {
				r.declared[d.key] = true
				_, allowed := allow[d.key]
				switch {
				case written[d.name] && allowed:
					r.allowedSet = append(r.allowedSet, d)
				case !written[d.name] && !allowed:
					r.unset = append(r.unset, d)
				}
			}
			for _, d := range topLevel(f, fset, true) {
				r.declared[d.key] = true
				ref := used[d.pkg+"."+d.name]
				if d.recv != "" {
					ref = used["."+d.name] || stdlibMethods[d.name] || used["api "+d.pkg+"."+d.recv]
				}
				_, allowed := allow[d.key]
				switch {
				case ref && allowed:
					r.allowedUsed = append(r.allowedUsed, d)
				case !ref && !allowed:
					r.unused = append(r.unused, d)
				}
			}
		}
		if f.dir == "bench" || strings.HasPrefix(f.dir, "bench/") {
			continue
		}
		for _, d := range topLevel(f, fset, false) {
			if !used[d.pkg+"."+d.name] {
				r.unexported = append(r.unexported, d)
			}
		}
	}
	return r
}

// TestNothingTestOnly fails when the product carries code only tests use:
// an exported name declared in a non-test file under internal/ that no
// non-test file of the repository references (bench/, cmd/ and examples/
// count as users), or an exported field of an exported struct there that
// no non-test code sets, unless testOnlyAllowed says why it stays; or an
// unexported top-level function outside bench/ that no non-test file of
// its own package calls.
func TestNothingTestOnly(t *testing.T) {
	fset := token.NewFileSet()
	r := scan(parseModule(t, fset), fset, testOnlyAllowed)
	t.Run("exported", func(t *testing.T) {
		for _, d := range r.unused {
			t.Errorf("%s: %s has no non-test user: delete it, move it into a _test.go file, or allowlist it with a reason", d.pos, d.key)
		}
		for _, d := range r.allowedUsed {
			t.Errorf("%s: %s is on the allowlist but has a non-test user now; drop the entry", d.pos, d.key)
		}
	})
	t.Run("unexported", func(t *testing.T) {
		for _, d := range r.unexported {
			t.Errorf("%s: unexported %s has no non-test user: delete it or move it into a _test.go file", d.pos, d.key)
		}
	})
	t.Run("fields", func(t *testing.T) {
		for _, d := range r.unset {
			t.Errorf("%s: field %s is set by no non-test code, so the path it selects runs only in tests: wire it to a caller, delete it, or allowlist it with a reason", d.pos, d.key)
		}
		for _, d := range r.allowedSet {
			t.Errorf("%s: field %s is on the allowlist but non-test code sets it now; drop the entry", d.pos, d.key)
		}
	})
	t.Run("allowlist", func(t *testing.T) {
		roadmap, err := os.ReadFile("ROADMAP.md")
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(testOnlyAllowed))
		for k := range testOnlyAllowed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !r.declared[k] {
				t.Errorf("allowlist entry %s names nothing declared under internal/", k)
			}
			reason := testOnlyAllowed[k]
			name := k[strings.LastIndex(k, ".")+1:]
			switch {
			case strings.HasPrefix(reason, "ROADMAP item "):
				item := strings.TrimPrefix(reason, "ROADMAP item ")
				if !strings.Contains(string(roadmap), "\n"+item+". **") {
					t.Errorf("allowlist entry %s: ROADMAP.md has no item %s", k, item)
				}
			case strings.HasPrefix(reason, "test fake used by "):
				file := strings.TrimPrefix(reason, "test fake used by ")
				src, err := os.ReadFile(file)
				if err != nil || !strings.HasSuffix(file, "_test.go") || !strings.Contains(string(src), name) {
					t.Errorf("allowlist entry %s: %q is not a test file that uses %s", k, reason, name)
				}
			default:
				t.Errorf("allowlist entry %s: reason %q names neither a ROADMAP item nor the test file a fake serves", k, reason)
			}
		}
	})
}

// TestScanFindsTestOnlyCode runs the scan on small made-up modules, so a
// change to the scanner that stops it seeing an unused name, or makes it
// flag a used one, fails here rather than passing silently over the real
// tree.
func TestScanFindsTestOnlyCode(t *testing.T) {
	lib := `package a

type T struct{}

func (T) M()             {}
func (T) N()             {}
func (T) String() string { return "" }
func F()                 {}
`
	cases := []struct {
		name  string
		files map[string]string
		allow map[string]string
		want  []string // keys flagged, in scan order: unused, allowlisted-but-used, unexported, unset, allowlisted-but-set
	}{
		{
			name:  "nothing uses the package",
			files: map[string]string{"internal/a/a.go": lib},
			want:  []string{"a.T", "a.T.M", "a.T.N", "a.F"},
		},
		{
			name: "another package uses the type, one method and the function",
			files: map[string]string{"internal/a/a.go": lib, "cmd/x/main.go": `package main

import "jouleguard/internal/a"

func main() { var t a.T; t.M(); a.F() }
`},
			want: []string{"a.T.N"},
		},
		{
			name: "only a test file uses the package",
			files: map[string]string{"internal/a/a.go": lib, "internal/a/a_test.go": `package a

func use() { var t T; t.M(); t.N(); F() }
`},
			want: []string{"a.T", "a.T.M", "a.T.N", "a.F"},
		},
		{
			name: "bench counts as a user and is not scanned itself",
			files: map[string]string{"internal/a/a.go": "package a\n\nfunc F() {}\n", "bench/main.go": `package main

import "jouleguard/internal/a"

func helper() {}

func main() { a.F() }
`},
		},
		{
			name: "the allowlist excuses an unused name and flags a used one",
			files: map[string]string{"internal/a/a.go": "package a\n\nfunc F() {}\n\nfunc G() {}\n", "cmd/x/main.go": `package main

import "jouleguard/internal/a"

func main() { a.G() }
`},
			allow: map[string]string{"a.F": "ROADMAP item 1", "a.G": "ROADMAP item 1"},
			want:  []string{"a.G"},
		},
		{
			name: "the root package's alias makes a type's methods API",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (T) N() {}\n", "lib.go": `package jouleguard

import "jouleguard/internal/a"

type T = a.T
`},
		},
		{
			name: "an unexported function that only calls itself",
			files: map[string]string{"internal/a/a.go": `package a

func F() { g() }

func g() {}

func h(n int) {
	if n > 0 {
		h(n - 1)
	}
}
`, "cmd/x/main.go": "package main\n\nimport \"jouleguard/internal/a\"\n\nfunc main() { a.F() }\n"},
			want: []string{"a.h"},
		},
		{
			name: "an unexported function only a test calls",
			files: map[string]string{"x.go": "package jouleguard\n\nfunc helper() {}\n",
				"x_test.go": "package jouleguard\n\nfunc use() { helper() }\n"},
			want: []string{"..helper"},
		},
		{
			name: "a field only a test sets",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct{ F, G int }\n\nfunc New() T { return T{G: 1} }\n",
				"internal/a/a_test.go": "package a\n\nfunc use() { t := New(); t.F = 2 }\n",
				"cmd/x/main.go":        "package main\n\nimport \"jouleguard/internal/a\"\n\nfunc main() { a.New() }\n"},
			want: []string{"a.T.F"},
		},
		{
			name: "writes through an index, ++, op=, & and a json tag count; json:\"-\" does not",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct {\n\tA []int\n\tB int\n\tC int\n\tD float64\n\tE int `json:\"e\"`\n\tF int `json:\"-\"`\n}\n\n" +
				"func New() *T {\n\tt := new(T)\n\tt.A[0] = 1\n\tt.B++\n\tp := &t.C\n\t*p = 1\n\tt.D += 1\n\treturn t\n}\n",
				"cmd/x/main.go": "package main\n\nimport \"jouleguard/internal/a\"\n\nfunc main() { a.New() }\n"},
			want: []string{"a.T.F"},
		},
		{
			name: "the allowlist excuses an unset field and flags a set one",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct{ F, G int }\n\nfunc New() T { return T{G: 1} }\n",
				"cmd/x/main.go": "package main\n\nimport \"jouleguard/internal/a\"\n\nfunc main() { a.New() }\n"},
			allow: map[string]string{"a.T.F": "ROADMAP item 1", "a.T.G": "ROADMAP item 1"},
			want:  []string{"a.T.G"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			names := make([]string, 0, len(tc.files))
			for p := range tc.files {
				names = append(names, p)
			}
			sort.Strings(names)
			var files []goFile
			for _, p := range names {
				f, err := parser.ParseFile(fset, p, tc.files[p], parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, goFile{path: p, dir: path.Dir(p), test: strings.HasSuffix(p, "_test.go"), ast: f})
			}
			r := scan(files, fset, tc.allow)
			var got []string
			for _, ds := range [][]declared{r.unused, r.allowedUsed, r.unexported, r.unset, r.allowedSet} {
				for _, d := range ds {
					got = append(got, d.key)
				}
			}
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("flagged %q, want %q", got, tc.want)
			}
		})
	}
}
