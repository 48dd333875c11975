package world

import (
	"sync"

	"protego/internal/kernel"
)

// Golden images: one fresh Build per mode, frozen on first use and shared
// by every harness in the process (difffuzz traces, exploit replays,
// equiv scenarios, the seccomp profiler). Each run stamps a private
// copy-on-write clone instead of paying a full Build. The golden machine
// itself is never handed out, so nothing can mutate the image after the
// freeze and every clone starts from the same boot state.
var (
	goldenMu sync.Mutex
	goldens  = map[kernel.Mode]*Snapshot{}
)

// Golden returns the process-wide frozen image of a fresh Build of mode,
// building it on first use.
func Golden(mode kernel.Mode) (*Snapshot, error) {
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if s, ok := goldens[mode]; ok {
		return s, nil
	}
	m, err := Build(Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	s := m.Snapshot()
	goldens[mode] = s
	return s, nil
}
