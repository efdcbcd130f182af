package mvml_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the internal/ declarations that no binary reaches but
// that stay on purpose, each with its reason. A key is a qualified name
// ("pkg.Name", "pkg.Type.Method"), a file ("internal/faultinject/schedule.go") or a
// package directory ("internal/pkg/"). An allowlisted declaration is a root
// of its own: what it uses is kept with it.
var reachAllowlist = map[string]string{
	"tensor.MatMulTransA": "scalar reference the packed GEMM arms are held to (ROADMAP item 4)",
	"tensor.MatMulTransB": "scalar reference the packed GEMM arms are held to (ROADMAP item 4)",
	"tensor.Im2Col":       "scalar reference GemmIm2Col is held to (ROADMAP item 4)",
	"tensor.Col2Im":       "scalar reference Col2ImAdd is held to (ROADMAP item 4)",

	"tensor.Tensor.Clone":   "how the tests copy a tensor",
	"tensor.Tensor.Reshape": "how the tests reshape a tensor",

	"reliability.Params.CheckBoundary2v":       "the paper's §V-B boundary for two versions",
	"reliability.Params.CheckBoundary3v":       "the paper's §V-B boundary for three versions",
	"reliability.WenMachidaFailureProbability": "the paper's Eq. 2",

	"faultinject.GaussianWeightNoise": "ROADMAP item 8 builds on it",
	"faultinject.Schedule":            "ROADMAP item 2 builds on it",

	"stats.Interval.Contains": "the CI-coverage tests",

	"telemetry.Flags.ListenAddr": "test seam: the bound address of an ephemeral -metrics-addr",
	"obs.SpanSink.Spans":         "test seam: the spans a sink has buffered",
}

// ifaceAlways are method names a package reaches by reflection or by an
// interface the module never names (fmt, encoding/json, net/http).
var ifaceAlways = []string{"String", "Error", "MarshalJSON", "UnmarshalJSON", "ServeHTTP"}

// asmRefRE matches a Go name an assembly file refers to: a constant from
// go_asm.h (const_X) or a symbol of the package (·X).
var asmRefRE = regexp.MustCompile(`const_(\w+)|·(\w+)`)

// reachPkg is one type-checked non-test package of the module.
type reachPkg struct {
	internal bool
	files    []*ast.File
	ignored  []*ast.File // non-test files build constraints exclude on this host
	asm      []string    // every .s file, whatever its constraints
	info     *types.Info
	types    *types.Package
	byName   map[string][]*reachDecl // internal declarations by bare name
}

// reachDecl is one top-level declaration in internal/.
type reachDecl struct {
	name    string // pkg.Name or pkg.Type.Method
	obj     types.Object
	pos     token.Position
	lines   int // with its doc comment
	node    ast.Node
	pkg     *reachPkg
	recv    *types.TypeName // for a method
	reached bool
}

// reachLoader type-checks the module's packages from source, the standard
// library through the source importer.
type reachLoader struct {
	fset *token.FileSet
	root string
	dirs map[string]string // import path → directory
	pkgs map[string]*reachPkg
	std  types.Importer
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *reachLoader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *reachLoader) load(path string) (*reachPkg, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	dir := l.dirs[path]
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	rel, _ := filepath.Rel(l.root, dir)
	p := &reachPkg{
		internal: strings.HasPrefix(filepath.ToSlash(rel), "internal/"),
		info:     &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		byName:   map[string][]*reachDecl{},
	}
	if p.files, err = l.parse(dir, bp.GoFiles); err != nil {
		return nil, err
	}
	var ignored []string
	for _, name := range bp.IgnoredGoFiles {
		if !strings.HasSuffix(name, "_test.go") {
			ignored = append(ignored, name)
		}
	}
	if p.ignored, err = l.parse(dir, ignored); err != nil {
		return nil, err
	}
	asm, _ := filepath.Glob(filepath.Join(dir, "*.s"))
	for _, name := range asm {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		p.asm = append(p.asm, string(data))
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadModule type-checks every non-test package of the module rooted at root.
func loadModule(t *testing.T, root string) (*reachLoader, []*reachPkg) {
	t.Helper()
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module := strings.Fields(strings.SplitN(string(mod), "\n", 2)[0])[1]
	// Pure-Go stdlib: the source importer would run cgo on net otherwise.
	build.Default.CgoEnabled = false
	l := &reachLoader{
		fset: token.NewFileSet(),
		root: root,
		dirs: map[string]string{},
		pkgs: map[string]*reachPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		gofiles, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range gofiles {
			if !strings.HasSuffix(f, "_test.go") {
				rel, _ := filepath.Rel(root, path)
				ip := module
				if rel != "." {
					ip += "/" + filepath.ToSlash(rel)
				}
				l.dirs[ip] = path
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for ip := range l.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	var pkgs []*reachPkg
	for _, ip := range paths {
		p, err := l.load(ip)
		if err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
		pkgs = append(pkgs, p)
	}
	return l, pkgs
}

// blank reports whether spec declares only _, as `var _ I = (*T)(nil)` does:
// a compile-time check that uses nothing at run time.
func blank(spec *ast.ValueSpec) bool {
	for _, n := range spec.Names {
		if n.Name != "_" {
			return false
		}
	}
	return true
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestInternalCodeIsReachedFromABinary fails for every top-level declaration
// in internal/ that no binary reaches and reachAllowlist does not name: code
// only tests call is code the paper's outputs do not need.
//
// The roots are every declaration outside internal/ (the cmd/ binaries, the
// benchmark among them, and the root package) and every init. A reached
// declaration reaches what it uses. A method is reached when its receiver type
// is and some interface the module declares or hands a value to has a method
// of that name (or it is one of ifaceAlways). A blank `var _ I = (*T)(nil)`
// uses nothing. Names in files build constraints exclude on this host, and
// names assembly refers to, count as used, so every GOARCH gives one answer.
func TestInternalCodeIsReachedFromABinary(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	l, pkgs := loadModule(t, root)

	decls := map[types.Object]*reachDecl{}
	methods := map[*types.TypeName][]*reachDecl{}
	ifaceNames := map[string]bool{}
	for _, n := range ifaceAlways {
		ifaceNames[n] = true
	}
	addIface := func(typ types.Type) {
		for {
			switch u := typ.(type) {
			case *types.Pointer:
				typ = u.Elem()
				continue
			case *types.Slice:
				typ = u.Elem()
				continue
			}
			break
		}
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}

	var queue []*reachDecl
	mark := func(d *reachDecl) {
		if !d.reached {
			d.reached = true
			queue = append(queue, d)
		}
	}
	use := func(obj types.Object) {
		if d := decls[origin(obj)]; d != nil {
			mark(d)
		}
	}
	// walk marks what node uses; node is a root or a reached declaration.
	walk := func(p *reachPkg, node ast.Node) {
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.info.Uses[id]; obj != nil {
					use(obj)
				}
			}
			return true
		})
	}

	add := func(p *reachPkg, def *ast.Ident, node ast.Node, doc *ast.CommentGroup) {
		obj := p.info.Defs[def]
		if obj == nil || def.Name == "_" {
			return
		}
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		pos := l.fset.Position(def.Pos())
		pos.Filename, _ = filepath.Rel(root, pos.Filename)
		pos.Filename = filepath.ToSlash(pos.Filename)
		d := &reachDecl{
			name:  p.types.Name() + "." + def.Name,
			obj:   obj,
			pos:   pos,
			lines: l.fset.Position(node.End()).Line - l.fset.Position(start).Line + 1,
			node:  node,
			pkg:   p,
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if ptr, ok := rt.(*types.Pointer); ok {
					rt = ptr.Elem()
				}
				d.recv = rt.(*types.Named).Obj()
				d.name = p.types.Name() + "." + d.recv.Name() + "." + def.Name
				methods[d.recv] = append(methods[d.recv], d)
			}
		}
		decls[obj] = d
		p.byName[def.Name] = append(p.byName[def.Name], d)
	}

	// Index every internal declaration; collect interface method names.
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(p.info.Types[it].Type)
				}
				return true
			})
			if !p.internal {
				continue
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil && decl.Name.Name == "init" {
						continue
					}
					add(p, decl.Name, decl, decl.Doc)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						doc := decl.Doc
						if len(decl.Specs) > 1 || decl.Lparen.IsValid() {
							doc = nil
						}
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Doc != nil {
								doc = spec.Doc
							}
							add(p, spec.Name, spec, doc)
						case *ast.ValueSpec:
							if spec.Doc != nil {
								doc = spec.Doc
							}
							for _, name := range spec.Names {
								add(p, name, spec, doc)
							}
						}
					}
				}
			}
		}
		for _, obj := range p.info.Uses {
			switch obj := obj.(type) {
			case *types.TypeName:
				addIface(obj.Type())
			case *types.Func:
				sig := obj.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					addIface(sig.Params().At(i).Type())
				}
			}
		}
	}

	// Roots.
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if !p.internal || (decl.Recv == nil && decl.Name.Name == "init") {
						walk(p, decl)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						if vs, ok := spec.(*ast.ValueSpec); !p.internal && !(ok && blank(vs)) {
							walk(p, spec)
						}
					}
				}
			}
		}
		byName := func(target *reachPkg, name string) {
			for _, d := range target.byName[name] {
				mark(d)
			}
		}
		for _, f := range p.ignored {
			imports := map[string]*reachPkg{}
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if q := l.pkgs[ip]; q != nil {
					name := q.types.Name()
					if imp.Name != nil {
						name = imp.Name.Name
					}
					imports[name] = q
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != nil {
						byName(imports[x.Name], n.Sel.Name)
						return false
					}
				case *ast.Ident:
					byName(p, n.Name)
				}
				return true
			})
		}
		for _, src := range p.asm {
			for _, line := range strings.Split(src, "\n") {
				if f := strings.Fields(line); len(f) > 0 && f[0] == "TEXT" {
					continue
				}
				for _, m := range asmRefRE.FindAllStringSubmatch(line, -1) {
					byName(p, m[1]+m[2])
				}
			}
		}
	}

	// Reach, then root the allowlist and reach again.
	flush := func() {
		for len(queue) > 0 {
			d := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			walk(d.pkg, d.node)
			if tn, ok := d.obj.(*types.TypeName); ok {
				for _, m := range methods[tn] {
					if ifaceNames[m.obj.Name()] {
						mark(m)
					}
				}
			}
		}
	}
	flush()
	var all []*reachDecl
	for _, d := range decls {
		all = append(all, d)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].pos.Filename != all[j].pos.Filename {
			return all[i].pos.Filename < all[j].pos.Filename
		}
		return all[i].pos.Line < all[j].pos.Line
	})
	used := map[string]bool{}
	kept, keptLines := 0, 0
	for _, d := range all {
		if d.reached {
			continue
		}
		kept++
		keptLines += d.lines
		for key := range reachAllowlist {
			if allowlisted(key, d) {
				used[key] = true
				mark(d)
			}
		}
	}
	for key := range reachAllowlist {
		if !used[key] {
			t.Errorf("reachAllowlist[%q] names no unreached declaration: drop the entry", key)
		}
	}
	flush()
	t.Logf("reachAllowlist keeps %d declarations (%d lines) no binary reaches", kept, keptLines)

	var report []string
	lines := 0
	for _, d := range all {
		if !d.reached {
			report = append(report, fmt.Sprintf("%s:%d %s", d.pos.Filename, d.pos.Line, d.name))
			lines += d.lines
		}
	}
	if len(report) > 0 {
		t.Errorf("%d declarations (%d lines) in internal/ no binary reaches; delete them, or add them to reachAllowlist with a reason:\n%s",
			len(report), lines, strings.Join(report, "\n"))
	}
}

// allowlisted reports whether key names d: its qualified name, the name of its
// receiver type, its file or its package directory.
func allowlisted(key string, d *reachDecl) bool {
	switch {
	case strings.HasSuffix(key, "/"):
		return strings.HasPrefix(d.pos.Filename, key)
	case strings.HasSuffix(key, ".go"):
		return d.pos.Filename == key
	}
	return d.name == key || (d.recv != nil && d.pkg.types.Name()+"."+d.recv.Name() == key)
}
