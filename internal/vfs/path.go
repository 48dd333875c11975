package vfs

import (
	"path"
	"strings"
)

// CleanPath normalizes an absolute or relative slash-separated path:
// collapsing repeated slashes, resolving "." and "..". Relative paths are
// resolved against cwd (absolute; "/" when empty). The result is always
// absolute and never ends in a slash (except the root itself). An
// already-clean absolute path comes back unchanged after one scan, with no
// allocation.
func CleanPath(p, cwd string) string {
	if isClean(p) {
		return p
	}
	if p == "" || p[0] != '/' {
		if cwd == "" || cwd[0] != '/' {
			cwd = "/" + cwd
		}
		p = cwd + "/" + p
	}
	return path.Clean(p)
}

// NamesDir reports whether p ends in "/" or "/.", so that on Linux it
// must name a directory. CleanPath drops both suffixes; syscalls check the
// path they were given.
func NamesDir(p string) bool {
	n := len(p)
	return n > 0 && p[n-1] == '/' || n > 1 && p[n-2:] == "/."
}

// isClean reports whether p is absolute with no empty, "." or ".."
// component and no trailing slash (except the root itself): it looks at
// what follows each slash.
func isClean(p string) bool {
	n := len(p)
	if n == 0 || p[0] != '/' {
		return false
	}
	if n == 1 {
		return true
	}
	if p[n-1] == '/' {
		return false
	}
	for i := 0; i < n; i++ {
		if p[i] != '/' {
			continue
		}
		// p does not end in a slash, so a component starts at i+1.
		switch p[i+1] {
		case '/':
			return false
		case '.':
			if i+2 == n || p[i+2] == '/' {
				return false
			}
			if p[i+2] == '.' && (i+3 == n || p[i+3] == '/') {
				return false
			}
		}
	}
	return true
}

// SplitPath returns the parent directory and base name of an absolute,
// cleaned path. SplitPath("/") returns ("/", ".").
func SplitPath(path string) (dir, base string) {
	if path == "/" {
		return "/", "."
	}
	i := strings.LastIndexByte(path, '/')
	dir = path[:i]
	if dir == "" {
		dir = "/"
	}
	return dir, path[i+1:]
}

// IsUnder reports whether path is equal to or lexically beneath dir (both
// must be cleaned, absolute paths).
func IsUnder(path, dir string) bool {
	if dir == "/" {
		return true
	}
	return path == dir || strings.HasPrefix(path, dir+"/")
}

// nextComponent returns the component of the cleaned absolute path p that
// starts at index i (just past a slash) and the index where it ends: len(p)
// for the last component, else the index of the slash after it. Walks
// iterate components in place with it, starting at i = 1 and moving to
// end+1, and stop once i >= len(p) (the root has no components).
func nextComponent(p string, i int) (name string, end int) {
	end = strings.IndexByte(p[i:], '/')
	if end < 0 {
		return p[i:], len(p)
	}
	return p[i : i+end], i + end
}

// symlinkTarget returns the cleaned path a walk of p continues at when
// the component p[start:end] is a symlink to target: the target resolved
// against the link's directory, followed by the components after the link.
func symlinkTarget(p string, start, end int, target []byte) string {
	dir := CleanPath(string(target), p[:start])
	switch {
	case end == len(p):
		return dir
	case dir == "/":
		return p[end:]
	default:
		return dir + p[end:]
	}
}
