package protego_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreached lists every exported function and method that no non-test
// file of the module or of benchmark/ references, each with the reason it
// stays. Anything else that nothing reaches is deleted (DESIGN.md row 19l).
var unreached = map[string]string{
	"authsvc.Service.SetClock":      "the fake clock: recency-window tests move time without sleeping",
	"bench.ParallelSuite":           "the BenchmarkParallel harness and its smoke test",
	"core.PendingSetuid":            "test observer: a task's deferred setuid-on-exec target",
	"difffuzz.DecodeTrace":          "corpus codec: the native fuzz target and the seed corpus decode bytes into traces",
	"difffuzz.Trace.Encode":         "corpus codec: writes a trace as a seed corpus entry",
	"exploits.ClassRepresentatives": "test fixture: one CVE per class for the exploit and vulngen sweep tests",
	"kernel.Task.Exited":            "test observer: whether a task exited, and its code",
	"lsm.Chain.Modules":             "test observer: the registration order (AppArmor first)",
	"profiler.Learn":                "the golden-profile regenerator (TestGoldenProfilesUpToDate -update)",
	"seccomp.Profile.Forbid":        "tests carve targeted denials out of FullProfile",
	"vfs.FS.Symlink":                "a symlink syscall (ROADMAP item 3) will call it; tests build links with it",
	"vfs.Inode.Sealed":              "test observer: whether an inode is still the image's shared copy",
	"vulngen.DecodeScenario":        "corpus codec: replays the committed regression scenarios",
}

// TestEveryFunctionReached type-checks every non-test file of the module
// and of benchmark/ and fails on an exported function or method that no
// non-test file references and that unreached does not list, and on an
// unreached entry that is now referenced or gone. A method named like a
// method of an interface declared in the program, or String or Error, is
// skipped: a call through the interface reaches it without naming it.
func TestEveryFunctionReached(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	found := map[string]bool{}
	for _, name := range prog.unreferenced() {
		found[name] = true
		if unreached[name] == "" {
			missing = append(missing, name)
		}
	}
	for _, name := range missing {
		t.Errorf("%s: no non-test code reaches it; delete it or list it with a reason", name)
	}
	for name := range unreached {
		if !found[name] {
			t.Errorf("%s: listed as unreached, but it is referenced or gone; drop the entry", name)
		}
	}
}

// program is every non-test package of the module and of benchmark/,
// parsed and type-checked.
type program struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
}

// loadProgram parses every directory under root that holds non-test Go
// files; a directory's import path is "protego/" plus its path, which is
// also benchmark/'s own module path.
func loadProgram(root string) (*program, error) {
	fset := token.NewFileSet()
	p := &program{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		path := "protego"
		if dir != root {
			path += "/" + filepath.ToSlash(dir)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files[path] = append(p.files[path], f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range p.files {
		if _, err := p.Import(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Import type-checks one of the program's packages on first use and
// hands any other path to the standard library's source importer.
func (p *program) Import(path string) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := p.files[path]
	if !ok {
		return p.std.Import(path)
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, p.info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p.pkgs[path] = pkg
	return pkg, nil
}

// unreferenced returns, sorted, every exported function and method the
// program declares and no identifier of it uses, named pkg.Func or
// pkg.Type.Method.
func (p *program) unreferenced() []string {
	skip := map[string]bool{"String": true, "Error": true}
	used := map[*types.Func]bool{}
	for _, obj := range p.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	var decls []*types.Func
	for _, obj := range p.info.Defs {
		switch o := obj.(type) {
		case *types.TypeName:
			if it, ok := o.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					skip[it.Method(i).Name()] = true
				}
			}
		case *types.Func:
			if o.Exported() {
				decls = append(decls, o)
			}
		}
	}
	var out []string
	for _, fn := range decls {
		sig := fn.Type().(*types.Signature)
		if used[fn] || (sig.Recv() != nil && skip[fn.Name()]) {
			continue
		}
		name := fn.Pkg().Name() + "." + fn.Name()
		if recv := sig.Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			if named, ok := typ.(*types.Named); ok {
				name = fn.Pkg().Name() + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
