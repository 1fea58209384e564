package refer

import (
	"encoding/json"
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

// docFiles are the documents whose code references must stay true.
// benchmark/README.md is frozen with the benchmark and is not checked.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// retiredNames are dotted references the docs keep on purpose after the
// code behind them went away, each with the PR that retired it.
var retiredNames = map[string]string{}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// lineSuffix strips a ":86" or ":86-100" location from a path.
	lineSuffix = regexp.MustCompile(`:\d+(-\d+)?$`)
	pathLike   = regexp.MustCompile(`^\.?[A-Za-z0-9_.*/-]+$`)
	// dotted is pkg.Ident, Type.Method or pkg.Type.Member, with an
	// optional call suffix. Snake-case names are metric names, not Go.
	dotted   = regexp.MustCompile(`^([A-Za-z][A-Za-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)(?:\.([A-Za-z][A-Za-z0-9]*))?(?:\([^()]*\))?$`)
	fileExts = map[string]bool{".go": true, ".md": true, ".json": true, ".csv": true, ".sha256": true, ".yml": true}
)

// TestDocsReferToLiveCode checks that every backticked repository path in
// the docs exists and every backticked pkg.Ident / Type.Method resolves
// to a declaration in the tree.
func TestDocsReferToLiveCode(t *testing.T) {
	code := parseTree(t)
	metricNames := benchmarkMetricNames(t)
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				span := m[1]
				if _, ok := retiredNames[span]; ok || metricNames[span] {
					continue
				}
				if path, isPath, isFile := repoPath(span, code.topDirs); isPath {
					if !pathExists(path, code.baseNames) {
						t.Errorf("%s:%d: `%s` names no file in the repository", doc, i+1, span)
					}
					continue
				} else if isFile {
					continue
				}
				if sm := dotted.FindStringSubmatch(span); sm != nil && !code.resolves(sm[1], sm[2], sm[3]) {
					t.Errorf("%s:%d: `%s` resolves to no declaration", doc, i+1, span)
				}
			}
		}
	}
}

// repoPath reports whether a span is meant as a repository path: it has a
// file extension, or its first element is a top-level directory or a
// package under internal/. HTTP routes and system names ("REFER/recovery")
// are not paths. A bare file name is a path only for source and docs;
// other bare names ("f.json" in a command line) are examples, reported
// as files so they are not read as Go either.
func repoPath(span string, topDirs map[string]bool) (path string, isPath, isFile bool) {
	path = lineSuffix.ReplaceAllString(span, "")
	if strings.HasPrefix(path, "/") || !pathLike.MatchString(path) {
		return "", false, false
	}
	ext := filepath.Ext(path)
	if !strings.Contains(path, "/") {
		return path, ext == ".go" || ext == ".md", fileExts[ext]
	}
	first := strings.SplitN(strings.TrimPrefix(path, "./"), "/", 2)[0]
	return path, fileExts[ext] || topDirs[first], false
}

// pathExists resolves a path from the repository root, then under
// internal/ ("core/route.go"); a bare file name matches any file of that
// name. Globs must match at least one file.
func pathExists(path string, baseNames map[string]bool) bool {
	if !strings.Contains(path, "/") {
		return baseNames[path]
	}
	for _, p := range []string{path, filepath.Join("internal", path)} {
		if matches, _ := filepath.Glob(strings.TrimSuffix(p, "/")); len(matches) > 0 {
			return true
		}
	}
	return false
}

// codeIndex is what the tree declares, by name.
type codeIndex struct {
	topDirs   map[string]bool
	baseNames map[string]bool
	// pkgs maps a package name to its top-level identifiers and the
	// methods of its types, so a doc may write ddear.twoHopHead.
	pkgs map[string]map[string]bool
	// members maps a type name to its fields, methods and interface
	// methods; embeds lists the types whose members it promotes.
	members map[string]map[string]bool
	embeds  map[string][]string
	// fieldTypes maps a struct field name to its type's name, so a doc may
	// write Sched.At for the field's method.
	fieldTypes map[string][]string
}

func parseTree(t *testing.T) *codeIndex {
	t.Helper()
	c := &codeIndex{
		topDirs:    map[string]bool{},
		baseNames:  map[string]bool{},
		pkgs:       map[string]map[string]bool{},
		members:    map[string]map[string]bool{},
		embeds:     map[string][]string{},
		fieldTypes: map[string][]string{},
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			c.topDirs[e.Name()] = true
		}
	}
	for _, pkg := range []string{"internal", "cmd", "examples"} {
		dirs, _ := os.ReadDir(pkg)
		for _, d := range dirs {
			if d.IsDir() {
				c.topDirs[d.Name()] = true
			}
		}
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		c.baseNames[d.Name()] = true
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		c.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *codeIndex) member(typ, name string) {
	if c.members[typ] == nil {
		c.members[typ] = map[string]bool{}
	}
	c.members[typ][name] = true
}

func (c *codeIndex) add(f *ast.File) {
	pkg := c.pkgs[f.Name.Name]
	if pkg == nil {
		pkg = map[string]bool{}
		c.pkgs[f.Name.Name] = pkg
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			pkg[d.Name.Name] = true
			if d.Recv != nil {
				c.member(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						pkg[n.Name] = true
					}
				case *ast.TypeSpec:
					pkg[s.Name.Name] = true
					c.addType(s)
				}
			}
		}
	}
}

func (c *codeIndex) addType(s *ast.TypeSpec) {
	name := s.Name.Name
	if c.members[name] == nil {
		c.members[name] = map[string]bool{}
	}
	switch tt := s.Type.(type) {
	case *ast.StructType:
		for _, field := range tt.Fields.List {
			ft := typeName(field.Type)
			if len(field.Names) == 0 {
				c.member(name, ft)
				c.embeds[name] = append(c.embeds[name], ft)
				continue
			}
			for _, n := range field.Names {
				c.member(name, n.Name)
				if ft != "" {
					c.fieldTypes[n.Name] = append(c.fieldTypes[n.Name], ft)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range tt.Methods.List {
			for _, n := range m.Names {
				c.member(name, n.Name)
			}
		}
	default:
		// A defined type or alias of another named type shares its members.
		if target := typeName(s.Type); target != "" {
			c.embeds[name] = append(c.embeds[name], target)
		}
	}
}

// typeName is the bare name of a (possibly pointer, qualified or generic)
// type expression, or "" for unnamed types.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}

// hasMember reports whether typ declares or promotes name.
func (c *codeIndex) hasMember(typ, name string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	if c.members[typ][name] {
		return true
	}
	for _, e := range c.embeds[typ] {
		if c.hasMember(e, name, seen) {
			return true
		}
	}
	return false
}

func (c *codeIndex) isType(name string) bool {
	_, ok := c.members[name]
	return ok
}

// resolves checks a.b[.m]. A package prefix needs b declared in it (and m
// a member of type b); a type prefix, or an exported struct field's name,
// needs b among its members. Lower-case prefixes that are no package are
// variables or standard-library packages and are not judged.
func (c *codeIndex) resolves(a, b, m string) bool {
	if ids, ok := c.pkgs[a]; ok && a != "main" {
		if !ids[b] {
			return false
		}
		return m == "" || c.hasMember(b, m, map[string]bool{})
	}
	if a[0] < 'A' || a[0] > 'Z' {
		return true
	}
	types := c.fieldTypes[a]
	if c.isType(a) {
		types = append([]string{a}, types...)
	}
	for _, typ := range types {
		if c.hasMember(typ, b, map[string]bool{}) && (m == "" || c.hasMember(b, m, map[string]bool{})) {
			return true
		}
	}
	return false
}

// benchmarkMetricNames are the dotted metric names BENCHMARK.json declares
// ("core.maintain_checks", "recovery.reelections"): docs quote them, and
// they are not Go identifiers.
func benchmarkMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		names[m.Name] = true
	}
	return names
}
