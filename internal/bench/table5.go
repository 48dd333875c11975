package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"protego/internal/kernel"
	"protego/internal/world"
)

// Row is one Table 5 row: the measurement under both kernels, with the
// ±95% confidence half-widths the paper's +/- columns report.
type Row struct {
	Name      string
	Unit      string
	Linux     float64
	LinuxCI   float64
	Protego   float64
	ProtegoCI float64
	// HigherIsBetter flips the overhead sign convention (bandwidth,
	// throughput rows).
	HigherIsBetter bool
	// PaperOverheadPct is the published % OH column for comparison.
	PaperOverheadPct float64
}

// OverheadPct computes Protego's overhead relative to the baseline,
// positive when Protego is worse.
func (r *Row) OverheadPct() float64 {
	if r.Linux == 0 {
		return 0
	}
	oh := (r.Protego - r.Linux) / r.Linux * 100
	if r.HigherIsBetter {
		oh = -oh
	}
	return oh
}

// Noise reports whether the row's two 95% confidence intervals overlap:
// the paper's criterion for a difference that is noise.
func (r *Row) Noise() bool {
	return Sample{Mean: r.Linux, CI95: r.LinuxCI}.Overlaps(Sample{Mean: r.Protego, CI95: r.ProtegoCI})
}

// paperOverheads maps microbenchmark names to the paper's % OH column.
var paperOverheads = map[string]float64{
	"syscall": 0.00, "read": 0.00, "write": 0.00, "stat": -2.94,
	"open/close": 0.00, "mount/umnt": 1.13, "setuid": 1.22, "setgid": 1.22,
	"ioctl": 0.72, "bind": 2.25, "sig install": 0.00, "sig overhead": 0.00,
	"prot. fault": 0.00, "fork+exit": -0.63, "fork+execve": 3.43,
	"fork+/bin/sh": 3.90, "0KB create": -2.51, "10KB create": -1.82,
	"AF_UNIX": 4.19, "Pipe": 2.23, "TCP connect": 3.05,
	"Local TCP lat": 6.32, "Local UDP lat": 7.19,
	"Rem. UDP lat": 6.38, "Rem. TCP lat": 7.38, "BW 64KB xfer": 2.74,
}

// Table5Config scales the workloads (smaller for tests, larger for the
// published run).
type Table5Config struct {
	PostalMessages int
	CompileFiles   int
	WebRequests    int
	WebConcurrency []int
	SkipMacro      bool
}

// DefaultTable5Config mirrors the paper's workload mix at
// simulation-appropriate scale.
func DefaultTable5Config() Table5Config {
	return Table5Config{
		PostalMessages: 300,
		CompileFiles:   400,
		WebRequests:    2000,
		WebConcurrency: []int{25, 50, 100, 200},
	}
}

// RunTable5 measures every row under both kernels through one loop,
// abba, and reports each as mean ± 95% CI.
func RunTable5(cfg Table5Config) ([]Row, error) {
	machines := map[kernel.Mode]*world.Machine{}
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			return nil, err
		}
		machines[mode] = m
	}
	var rows []Row
	for _, test := range MicroSuite() {
		sessions := map[kernel.Mode]*kernel.Task{}
		for mode, m := range machines {
			t, err := m.Session(test.User())
			if err != nil {
				return nil, err
			}
			sessions[mode] = t
		}
		micro := []Row{{Name: test.Name, Unit: "us", PaperOverheadPct: paperOverheads[test.Name]}}
		micro, err := abba(micro, func(mode kernel.Mode) ([]float64, error) {
			start := time.Now()
			if err := test.Run(machines[mode], sessions[mode], test.Iters); err != nil {
				return nil, err
			}
			return []float64{float64(time.Since(start).Nanoseconds()) / 1000 / float64(test.Iters)}, nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, micro...)
	}
	if cfg.SkipMacro {
		return rows, nil
	}

	postal := []Row{{Name: "Postal msgs/min", Unit: "msgs/min", HigherIsBetter: true, PaperOverheadPct: -0.04}}
	postal, err := abba(postal, func(mode kernel.Mode) ([]float64, error) {
		res, err := RunPostal(mode, cfg.PostalMessages)
		if err != nil {
			return nil, err
		}
		return []float64{res.MsgsPerMin}, nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, postal...)

	compile := []Row{{Name: "Kernel compile", Unit: "ms", PaperOverheadPct: 1.44}}
	compile, err = abba(compile, func(mode kernel.Mode) ([]float64, error) {
		res, err := RunCompile(mode, cfg.CompileFiles)
		if err != nil {
			return nil, err
		}
		return []float64{float64(res.Elapsed.Microseconds()) / 1000}, nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, compile...)

	msPaper := map[int]float64{25: 3.57, 50: 3.85, 100: 4.00, 200: 2.65}
	kbPaper := map[int]float64{25: 4.05, 50: 3.95, 100: 3.96, 200: 2.64}
	for _, conc := range cfg.WebConcurrency {
		web := []Row{
			{Name: fmt.Sprintf("Web ms/req %d conc", conc), Unit: "ms", PaperOverheadPct: msPaper[conc]},
			{Name: fmt.Sprintf("Web KB/s %d conc", conc), Unit: "KB/s", HigherIsBetter: true, PaperOverheadPct: kbPaper[conc]},
		}
		// One RunWeb yields both of the concurrency level's rows.
		web, err := abba(web, func(mode kernel.Mode) ([]float64, error) {
			res, err := RunWeb(mode, conc, cfg.WebRequests)
			if err != nil {
				return nil, err
			}
			return []float64{res.MsPerRequest, res.TransferKBps}, nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, web...)
	}
	return rows, nil
}

// table5Rounds is the number of timed rounds per image. It is even, so
// each image runs first in half of them.
const table5Rounds = 6

// abba measures rows on both images and fills in their means and 95%
// CIs. round runs once on an image and returns one value per row. One
// warm-up round per image is discarded and the heap collected; the timed
// rounds then alternate which image runs first (Linux, Protego; Protego,
// Linux; ...), so drift, GC debt and cache warmth land on both images
// alike — the fair comparison the paper gets from separately booted
// kernels.
func abba(rows []Row, round func(mode kernel.Mode) ([]float64, error)) ([]Row, error) {
	modes := [2]kernel.Mode{kernel.ModeLinux, kernel.ModeProtego}
	for _, mode := range modes {
		if _, err := round(mode); err != nil {
			return nil, fmt.Errorf("%s warm-up (%s): %w", rows[0].Name, mode, err)
		}
	}
	runtime.GC()
	vals := [2][][]float64{make([][]float64, len(rows)), make([][]float64, len(rows))}
	for r := 0; r < table5Rounds; r++ {
		for k := range modes {
			side := (k + r) % 2
			v, err := round(modes[side])
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", rows[0].Name, modes[side], err)
			}
			for i := range rows {
				vals[side][i] = append(vals[side][i], v[i])
			}
		}
	}
	for i := range rows {
		l, p := Summarize(vals[0][i]), Summarize(vals[1][i])
		rows[i].Linux, rows[i].LinuxCI = l.Mean, l.CI95
		rows[i].Protego, rows[i].ProtegoCI = p.Mean, p.CI95
	}
	return rows, nil
}

// FormatTable5 renders the rows in the paper's layout (Linux, +/-,
// Protego, +/-, % OH).
func FormatTable5(rows []Row) string {
	var b strings.Builder
	b.WriteString("Table 5: Protego overheads compared to Linux with AppArmor\n")
	fmt.Fprintf(&b, "%-22s %12s %8s %12s %8s %9s %9s  %s\n",
		"Test", "Linux", "+/-", "Protego", "+/-", "% OH", "Paper%", "Unit")
	for i := range rows {
		r := &rows[i]
		noise := ""
		if r.Noise() {
			noise = " ~"
		}
		fmt.Fprintf(&b, "%-22s %12.3f %8.3f %12.3f %8.3f %+9.2f %+9.2f  %s%s\n",
			r.Name, r.Linux, r.LinuxCI, r.Protego, r.ProtegoCI,
			r.OverheadPct(), r.PaperOverheadPct, r.Unit, noise)
	}
	b.WriteString("\n'~' marks rows whose 95% CIs overlap (differences within noise).\n")
	b.WriteString("Paper range: 0-7.4% overhead; kernel compile 1.44%.\n")
	return b.String()
}
