package cards

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	designCode    = regexp.MustCompile("`([^`\n]+)`")
	designPkgName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\.\w+)*$`)
	designTest    = regexp.MustCompile(`^(?:[a-z]\w*\.)?((?:Test|Benchmark|Fuzz)[\w{},*]*)$`)
	designSection = regexp.MustCompile(`(paper )?§(\d+(?:\.\d+)?)`)
	designCite    = regexp.MustCompile(`DESIGN\.md (§\d+(?:/§\d+)*)(?:,\s+"([^"]+)")?`)
	designHeading = regexp.MustCompile(`(?m)^(##|###) (?:(\d+)\. )?(.+)$`)
)

// TestDesignReferencesResolve keeps DESIGN.md from drifting away from
// the code: (a) every backticked pkg.Name it cites, pkg a package of
// this module, is declared in that package (a top-level name or a
// method; pkg.Type.Member also needs the field or method); (b) every
// backticked Test, Benchmark or Fuzz name, braces expanded and a
// trailing * a prefix, is a function in some _test.go file; (c) every
// "DESIGN.md §N" in the module's Go and Markdown files, and every §N
// inside DESIGN.md, names a "## N." heading, and a quoted title after
// it begins a "###" heading of that section. Paper sections are written
// "paper §4.2". CHANGES.md and ROADMAP.md keep history and are exempt.
func TestDesignReferencesResolve(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(raw)
	decls, tests := moduleDecls(t)

	for _, m := range designCode.FindAllStringSubmatch(design, -1) {
		ref := m[1]
		if tm := designTest.FindStringSubmatch(ref); tm != nil {
			for _, name := range expandBraces(tm[1]) {
				if !testExists(tests, name) {
					t.Errorf("DESIGN.md cites `%s`: no %s in any _test.go file", ref, name)
				}
			}
			continue
		}
		pm := designPkgName.FindStringSubmatch(ref)
		if pm == nil || strings.HasSuffix(ref, ".go") {
			continue
		}
		names, ok := decls[pm[1]]
		if !ok {
			continue // not a package of this module
		}
		if !names[pm[2]] {
			t.Errorf("DESIGN.md cites `%s`: package %s declares no %s", ref, pm[1], pm[2])
		} else if pm[3] != "" && !names[pm[2]+"."+pm[3]] {
			t.Errorf("DESIGN.md cites `%s`: %s.%s has no field or method %s", ref, pm[1], pm[2], pm[3])
		}
	}

	sections := map[string][]string{} // "N" → its "###" titles
	cur := ""
	for _, h := range designHeading.FindAllStringSubmatch(design, -1) {
		if h[1] == "##" {
			cur = h[2]
			if cur != "" {
				sections[cur] = nil
			}
		} else if cur != "" {
			sections[cur] = append(sections[cur], h[3])
		}
	}
	for _, m := range designSection.FindAllStringSubmatch(design, -1) {
		if m[1] == "" {
			if _, ok := sections[m[2]]; !ok {
				t.Errorf("DESIGN.md refers to §%s, which it does not have (paper sections are written \"paper §N\")", m[2])
			}
		}
	}

	exempt := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}
	walkModule(t, func(path string) error {
		if exempt[path] || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".md")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range designCite.FindAllStringSubmatch(string(b), -1) {
			for _, n := range strings.Split(m[1], "/") {
				titles, ok := sections[strings.TrimPrefix(n, "§")]
				if !ok {
					t.Errorf("%s: %q names a section DESIGN.md does not have", path, m[0])
					continue
				}
				if m[2] != "" && !hasTitlePrefix(titles, m[2]) {
					t.Errorf("%s: %q: DESIGN.md %s has no subsection %q", path, m[0], n, m[2])
				}
			}
		}
		return nil
	})
}

// walkModule calls fn on every file of the module outside .git and
// testdata directories.
func walkModule(t *testing.T, fn func(path string) error) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir():
			return nil
		}
		return fn(path)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// moduleDecls parses every Go file of the module. decls maps a package
// ("cards", or the directory name under internal/ or cmd/) to its
// top-level names, method names, and "Type.Member" for each field and
// method; tests holds every function declared in a _test.go file.
func moduleDecls(t *testing.T) (decls map[string]map[string]bool, tests map[string]bool) {
	decls, tests = map[string]map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	walkModule(t, func(path string) error {
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					tests[fn.Name.Name] = true
				}
			}
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := ""
		switch parts := strings.Split(dir, "/"); {
		case dir == ".":
			pkg = "cards"
		case len(parts) == 2 && (parts[0] == "internal" || parts[0] == "cmd"):
			pkg = parts[1]
		default:
			return nil
		}
		names := decls[pkg]
		if names == nil {
			names = map[string]bool{}
			decls[pkg] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names[decl.Name.Name] = true
				if decl.Recv != nil {
					names[recvName(decl.Recv.List[0].Type)+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						addMembers(names, spec)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	return decls, tests
}

// addMembers records a struct's fields or an interface's methods as
// "Type.Member".
func addMembers(names map[string]bool, spec *ast.TypeSpec) {
	var fields *ast.FieldList
	switch typ := spec.Type.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return
	}
	for _, field := range fields.List {
		for _, n := range field.Names {
			names[spec.Name.Name+"."+n.Name] = true
		}
		if len(field.Names) == 0 { // embedded
			names[spec.Name.Name+"."+recvName(field.Type)] = true
		}
	}
}

// recvName is the bare type name of a receiver or embedded field.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// expandBraces expands one or more {a,b} groups: "X{A,B}" → XA, XB.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	end := strings.IndexByte(s, '}')
	if open < 0 || end < open {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}

func testExists(tests map[string]bool, name string) bool {
	prefix, glob := strings.CutSuffix(name, "*")
	if !glob {
		return tests[name]
	}
	for fn := range tests {
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}

// hasTitlePrefix reports whether a subsection title begins with want,
// whitespace normalised (a citation may wrap across lines).
func hasTitlePrefix(titles []string, want string) bool {
	want = strings.Join(strings.Fields(want), " ")
	for _, title := range titles {
		if strings.HasPrefix(title, want) {
			return true
		}
	}
	return false
}
