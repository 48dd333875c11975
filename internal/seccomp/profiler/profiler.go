// Package profiler learns the per-binary syscall profiles from the
// functional corpora: every equiv scenario plus the exact difffuzz trace
// corpus CI executes, replayed on instrumented clones of both golden
// images with a recording seccomp module watching the TaskSyscall hook.
// The corpus is fixed and a profile is a union of observations, so the
// result is deterministic: regenerated profiles are byte-identical to the
// committed goldens unless kernel or utility behavior actually changed.
package profiler

import (
	"fmt"

	"protego/internal/difffuzz"
	"protego/internal/equiv"
	"protego/internal/kernel"
	"protego/internal/seccomp"
	"protego/internal/world"
)

// CorpusSeed is one difffuzz generator stream in the learning corpus.
type CorpusSeed struct {
	Seed int64
	N    int
}

// CorpusSeeds mirrors the difffuzz sweep CI executes (the TestDiffFuzz
// seeds and trace counts; the bench's -difffuzz run is a prefix of the
// first stream). Learning from exactly what CI replays is what makes the
// audit invariant's "0 unexplained violations" a meaningful statement.
var CorpusSeeds = []CorpusSeed{{Seed: 1, N: 200}, {Seed: 2, N: 60}, {Seed: 3, N: 60}, {Seed: 4, N: 60}}

// Learn replays the full corpus and returns the learned profile set for
// each image.
func Learn() (linux, protego *seccomp.ProfileSet, err error) {
	recs := map[kernel.Mode]*seccomp.Recorder{
		kernel.ModeLinux:   seccomp.NewRecorder(kernel.ModeLinux.String()),
		kernel.ModeProtego: seccomp.NewRecorder(kernel.ModeProtego.String()),
	}
	// instrument registers the mode's recorder (always last in the chain,
	// like the enforcing module it stands in for), which arms the syscall
	// gate, so session setup and scenario syscalls are observed exactly
	// where enforcement will later mediate them.
	instrument := func(m *world.Machine) {
		m.K.LSM.Register(recs[m.K.Mode])
	}

	// Equiv corpus: every scenario of every utility, each on a private
	// clone of the mode's golden image (scenarios mutate state).
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		snap, err := world.Golden(mode)
		if err != nil {
			return nil, nil, fmt.Errorf("profiler: build %s: %w", mode, err)
		}
		for _, u := range equiv.Utilities() {
			scenarios := equiv.Scenarios[u]
			for i := range scenarios {
				m, err := snap.Clone()
				if err != nil {
					return nil, nil, fmt.Errorf("profiler: clone %s: %w", mode, err)
				}
				instrument(m)
				if _, err := scenarios[i].ReplayOn(m); err != nil {
					return nil, nil, fmt.Errorf("profiler: %s/%s on %s: %w", u, scenarios[i].Name, mode, err)
				}
			}
		}
	}

	// Difffuzz corpus: the CI sweep's exact seeds and counts, replayed
	// without fingerprint comparison (learning wants syscalls, not
	// verdicts). Each Replay drives both images.
	for _, c := range CorpusSeeds {
		gen := difffuzz.NewGenerator(c.Seed)
		for i := 0; i < c.N; i++ {
			if err := difffuzz.Replay(gen.Next(), instrument); err != nil {
				return nil, nil, fmt.Errorf("profiler: difffuzz seed %d trace %d: %w", c.Seed, i, err)
			}
		}
	}
	return recs[kernel.ModeLinux].Set(), recs[kernel.ModeProtego].Set(), nil
}
