package vulngen

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"protego/internal/exploits"
)

// Every committed testdata scenario is a shrunk regression reproducer:
// it must decode, replay against the per-class CVE representatives, and
// hold containment.
func TestRegressionScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.scenario"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < int(shapeCount) {
		t.Fatalf("found %d committed scenarios, want at least one per shape (%d)", len(files), shapeCount)
	}
	var mu sync.Mutex // the subtests run in parallel
	seen := map[Shape]bool{}
	corpus := exploits.ClassRepresentatives()
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := DecodeScenario(string(data))
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			seen[sc.Shape] = true
			mu.Unlock()
			res, err := ReplayScenario(sc, corpus, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failing() {
				t.Errorf("%s", res)
			}
		})
	}
	t.Cleanup(func() {
		for shape := Shape(0); shape < shapeCount; shape++ {
			if !seen[shape] {
				t.Errorf("no committed regression scenario for shape %s", shape)
			}
		}
	})
}
