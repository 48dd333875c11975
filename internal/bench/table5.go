package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"protego/internal/kernel"
	"protego/internal/world"
)

// Row is one Table 5 row: each image's median over the timed rounds, with
// the 95% confidence interval of the median as [low, high].
type Row struct {
	Name               string
	Unit               string
	Linux, Protego     float64
	LinuxCI, ProtegoCI [2]float64
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
	return r.LinuxCI[0] <= r.ProtegoCI[1] && r.ProtegoCI[0] <= r.LinuxCI[1]
}

// Table5Config scales the macro workloads (smaller for tests, larger for
// the published run).
type Table5Config struct {
	PostalMessages int
	CompileFiles   int
	WebRequests    int
	WebConcurrency []int
	SkipMacro      bool
}

// DefaultTable5Config mirrors the paper's workload mix at
// simulation-appropriate scale: each of abba's rounds runs every workload
// once per image, so a round stays short. WebRequests must be at least
// the highest concurrency, or its clients issue none.
func DefaultTable5Config() Table5Config {
	return Table5Config{
		PostalMessages: 100,
		CompileFiles:   200,
		WebRequests:    300,
		WebConcurrency: []int{25, 50, 100, 200},
	}
}

// modes are the two images, in abba's side order.
var modes = [2]kernel.Mode{kernel.ModeLinux, kernel.ModeProtego}

// RunTable5 measures every row under both kernels through one loop,
// abba, and reports each image's median with its 95% CI. The micro rows
// all run on one root session per image.
func RunTable5(cfg Table5Config) ([]Row, error) {
	var machines [2]*world.Machine
	var roots [2]*kernel.Task
	for side, mode := range modes {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			return nil, err
		}
		if roots[side], err = m.Session("root"); err != nil {
			return nil, err
		}
		machines[side] = m
	}
	var rows []Row
	for _, op := range Table5Ops {
		row, err := timeOp(op, machines, roots)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if cfg.SkipMacro {
		return rows, nil
	}

	postal := []Row{{Name: "Postal msgs/min", Unit: "msgs/min", HigherIsBetter: true, PaperOverheadPct: -0.04}}
	postal, err := abba(postal, func(side int) ([]float64, error) {
		res, err := RunPostal(modes[side], cfg.PostalMessages)
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
	compile, err = abba(compile, func(side int) ([]float64, error) {
		res, err := RunCompile(modes[side], cfg.CompileFiles)
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
		web, err := abba(web, func(side int) ([]float64, error) {
			res, err := RunWeb(modes[side], conc, cfg.WebRequests)
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

// roundLen is about how long one round of a micro row lasts on one
// image: the row's first warm-up round calls its op until roundLen has
// passed, and every later round makes that many calls.
const roundLen = 500 * time.Microsecond

// timeOp starts op on both images, measures it through abba in
// microseconds per call, and finishes it.
func timeOp(op Op, machines [2]*world.Machine, roots [2]*kernel.Task) (row Row, err error) {
	var calls [2]func() error
	finishes := [2]func() error{noCheck, noCheck}
	defer func() {
		for side, finish := range finishes {
			if ferr := finish(); ferr != nil && err == nil {
				err = fmt.Errorf("%s (%s): %w", op.Name, modes[side], ferr)
			}
		}
	}()
	for side := range modes {
		call, finish, err := op.Start(machines[side], roots[side])
		if err != nil {
			return row, fmt.Errorf("%s (%s): %w", op.Name, modes[side], err)
		}
		calls[side], finishes[side] = call, finish
	}
	n := 0
	rows, err := abba([]Row{{Name: op.Name, Unit: "us", PaperOverheadPct: op.PaperOverheadPct}}, func(side int) ([]float64, error) {
		i, start := 0, time.Now()
		for ; i < n || n == 0 && time.Since(start) < roundLen; i++ {
			if err := calls[side](); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		n = i
		return []float64{float64(elapsed.Nanoseconds()) / 1000 / float64(n)}, nil
	})
	if err == nil {
		row = rows[0]
	}
	return row, err
}

// table5Rounds is the number of timed rounds per image. It is even, so
// each image runs first in half of them.
const table5Rounds = 40

// abba measures rows on both images and fills in each image's median
// and its 95% CI. round runs once on one image (side 0 is Linux, side 1
// Protego) and returns one value per row. One warm-up round per image is
// discarded and the heap collected; the timed rounds then alternate which
// image runs first (Linux, Protego; Protego, Linux; ...), so drift, GC
// debt and cache warmth land on both images alike — the fair comparison
// the paper gets from separately booted kernels.
func abba(rows []Row, round func(side int) ([]float64, error)) ([]Row, error) {
	for side, mode := range modes {
		if _, err := round(side); err != nil {
			return nil, fmt.Errorf("%s warm-up (%s): %w", rows[0].Name, mode, err)
		}
	}
	runtime.GC()
	vals := [2][][]float64{make([][]float64, len(rows)), make([][]float64, len(rows))}
	for r := 0; r < table5Rounds; r++ {
		for k := range modes {
			side := (k + r) % 2
			v, err := round(side)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", rows[0].Name, modes[side], err)
			}
			for i := range rows {
				vals[side][i] = append(vals[side][i], v[i])
			}
		}
	}
	for i := range rows {
		rows[i].Linux, rows[i].LinuxCI = medianCI(vals[0][i])
		rows[i].Protego, rows[i].ProtegoCI = medianCI(vals[1][i])
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
			r.Name, r.Linux, (r.LinuxCI[1]-r.LinuxCI[0])/2, r.Protego, (r.ProtegoCI[1]-r.ProtegoCI[0])/2,
			r.OverheadPct(), r.PaperOverheadPct, r.Unit, noise)
	}
	fmt.Fprintf(&b, "\nEach value is the median of %d rounds per kernel; +/- is half the width of\n", table5Rounds)
	b.WriteString("its order-statistic 95% CI. '~' marks rows whose two CIs overlap (differences\nwithin noise).\n")
	b.WriteString("Paper range: 0-7.4% overhead; kernel compile 1.44%.\n")
	return b.String()
}
