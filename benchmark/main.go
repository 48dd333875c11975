// Command benchmark is the repository's benchmark: closed-loop workloads
// that drive the simulated Protego and setuid-baseline images through the
// public functions of their packages, check every outcome, and report
// end-to-end metrics (untraced) or per-layer metrics (traced).
//
// From the repository root, whose BENCHMARK.json lists the workloads and
// metrics:
//
//	bash benchmark/run.sh [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-json out.json] [-spans spans.json]
//	bash benchmark/run.sh -compare parent.json change.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	cfg, err := loadConfig("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, cfg, &options{}))
}

// run is the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer, cfg *config, opts *options) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadList := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := fs.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := fs.Float64("seconds", cfg.Seconds, "timed seconds per workload")
	traced := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	jsonPath := fs.String("json", "", "append this run's full report to a JSON array in this file")
	spansPath := fs.String("spans", filepath.Join(".bench_build", "spans.json"), "where a traced run writes its spans")
	compare := fs.Bool("compare", false, "compare two -json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "-compare needs two report files")
			return 2
		}
		return compareReports(cfg, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	var specs []*workloadSpec
	if *workloadList == "" {
		for i := range cfg.Workloads {
			specs = append(specs, &cfg.Workloads[i])
		}
	} else {
		for _, name := range strings.Split(*workloadList, ",") {
			spec, ok := cfg.workload(name)
			if !ok {
				fmt.Fprintf(stderr, "unknown workload %q\n", name)
				return 2
			}
			specs = append(specs, spec)
		}
	}

	st := newStamp(*seed, *seconds, *traced == 1)
	fmt.Fprintln(stdout, st)
	rep := runReport{Stamp: st}
	tracers := map[string]*spanTracer{}
	for _, spec := range specs {
		wr, err := runOne(cfg, spec, *seed, *seconds, *traced == 1, opts, tracers)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", spec.Name, err)
			return 1
		}
		for _, e := range wr.Errors {
			fmt.Fprintf(stderr, "%s: %s\n", spec.Name, e)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	printTable(stdout, cfg, &rep)
	if *traced == 1 {
		if err := os.MkdirAll(filepath.Dir(*spansPath), 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := writeSpans(*spansPath, tracers); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", *spansPath)
	}
	if *jsonPath != "" {
		if err := appendReport(*jsonPath, &rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, correct := resultLine(cfg, &rep)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// runOne runs one workload and turns its measurements into a report.
func runOne(cfg *config, spec *workloadSpec, seed int64, seconds float64, traced bool, opts *options, tracers map[string]*spanTracer) (workloadReport, error) {
	res, err := runWorkload(cfg, spec, seed, seconds, traced, opts)
	if err != nil {
		return workloadReport{}, err
	}
	wr := workloadReport{
		Name: spec.Name, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]float64{}, Rounds: map[string][]float64{}, Slowdowns: map[string][]float64{},
		SetupS: res.setupS,
	}
	for _, e := range res.errs {
		wr.Errors = append(wr.Errors, e.Error())
	}
	for _, a := range res.arms {
		name := res.inst.images()[a.img]
		if a.traced {
			name += "+trace"
		}
		wr.Rounds[name] = a.rounds
		wr.Slowdowns[name] = a.slowdowns
	}
	wr.Metrics, err = endToEnd(cfg, res)
	if err != nil && !traced {
		// A traced run reports no end-to-end metrics, so it refuses none.
		wr.Errors = append(wr.Errors, err.Error())
		wr.Refused++
	}
	if traced {
		pr, err := runProbes(cfg, seed, res.inst)
		if err != nil {
			return wr, err
		}
		if wr.Layers, err = layerMetrics(cfg, res, pr); err != nil {
			return wr, err
		}
		tracers[spec.Name] = res.tracer
		tracers[spec.Name+"/probes"] = pr.tr
	}
	return wr, nil
}

// endToEnd computes the end-to-end metrics of the untraced arms. A
// percentile with too few samples beyond it is left out and reported in
// the error.
func endToEnd(cfg *config, res *runResult) (map[string]float64, error) {
	out := map[string]float64{}
	var errs []error
	byImage := map[string]*arm{}
	for _, a := range res.arms {
		if !a.traced {
			byImage[res.inst.images()[a.img]] = a
		}
	}
	put := func(prefix string, a *arm) {
		out[prefix+"ops_per_s"] = median(a.rounds)
		for _, p := range []struct {
			name string
			q    float64
		}{{"p50_us", 50}, {"p99_us", 99}} {
			if ns, ok := a.hist.percentile(p.q); ok {
				out[prefix+p.name] = ns / 1e3
			} else {
				errs = append(errs, fmt.Errorf("%s%s refused: %d samples leave fewer than %d beyond it", prefix, p.name, a.hist.n, minBeyond))
			}
		}
	}
	pro := byImage[imgProtego]
	if pro == nil {
		pro = byImage[imgPair]
	}
	put("", pro)
	if b := byImage[imgBaseline]; b != nil {
		put("baseline_", b)
		// Round i of each image ran in the same ABBA block, so the
		// per-block ratio cancels drift in the host's speed.
		n := min(len(pro.rounds), len(b.rounds))
		extra := make([]float64, n)
		for i := range extra {
			extra[i] = 100 * (b.rounds[i]/pro.rounds[i] - 1)
		}
		out["protego_vs_baseline_pct"] = median(extra)
	}
	out["host_slowdown"] = median(pro.slowdowns)
	out["setup_s"] = median(res.setupS)
	out["allocs_per_op"] = float64(pro.mallocs) / float64(pro.ops)
	out["heap_inuse_mb"] = median(res.heapInuse) / 1e6
	out["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	for name := range out {
		if m, ok := cfg.metric(name); !ok || !m.reportedOn(res.spec.Name) {
			delete(out, name)
		}
	}
	return out, errors.Join(errs...)
}

type runReport struct {
	Stamp     stamp            `json:"stamp"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string               `json:"name"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Refused   int                  `json:"refused"`
	Metrics   map[string]float64   `json:"metrics"`
	Layers    map[string]float64   `json:"layers,omitempty"`
	Rounds    map[string][]float64 `json:"rounds"`    // normalized ops per CPU-second
	Slowdowns map[string][]float64 `json:"slowdowns"` // of each round
	SetupS    []float64            `json:"setup_s"`
	Errors    []string             `json:"errors,omitempty"`
}

type stamp struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Revision   string  `json:"revision,omitempty"`
	Seed       int64   `json:"seed"`
	Date       string  `json:"date"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func newStamp(seed int64, seconds float64, traced bool) stamp {
	st := stamp{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Date: time.Now().UTC().Format(time.RFC3339), Seconds: seconds, Traced: traced,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				st.Revision = s.Value + st.Revision
			case s.Key == "vcs.modified" && s.Value == "true":
				st.Revision += "+dirty"
			}
		}
	}
	return st
}

func (s stamp) String() string {
	rev := s.Revision
	if rev == "" {
		rev = "none"
	}
	return fmt.Sprintf("# protego benchmark: %s GOMAXPROCS=%d NumCPU=%d rev=%s seed=%d date=%s seconds=%g trace=%t",
		s.Go, s.GOMAXPROCS, s.NumCPU, rev, s.Seed, s.Date, s.Seconds, s.Traced)
}

// printTable prints the end-to-end metrics one row per workload, and for
// a traced run every per-layer metric of each workload.
func printTable(w io.Writer, cfg *config, rep *runReport) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "workload\tattempted\tfailed\t")
	for _, m := range cfg.Metrics {
		fmt.Fprintf(tw, "%s[%s]\t", m.Name, m.Unit)
	}
	fmt.Fprintln(tw)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(tw, "%s\t%d\t%d\t", wr.Name, wr.Attempted, wr.Failed)
		for _, m := range cfg.Metrics {
			if v, ok := wr.Metrics[m.Name]; ok {
				fmt.Fprintf(tw, "%.4g\t", v)
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, wr := range rep.Workloads {
		if wr.Layers == nil {
			continue
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, l := range cfg.PerLayer {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", wr.Name, l.Name, wr.Layers[l.Name], l.Unit)
		}
		tw.Flush()
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON line: the gated end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one. With several
// workloads the names are prefixed "<workload>/".
func resultLine(cfg *config, rep *runReport) (string, bool) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	var names, units []string
	if rep.Stamp.Traced {
		for _, l := range cfg.PerLayer {
			names, units = append(names, l.Name), append(units, l.Unit)
		}
	} else {
		for _, m := range cfg.Metrics {
			if m.Gated {
				names, units = append(names, m.Name), append(units, m.Unit)
			}
		}
	}
	for _, wr := range rep.Workloads {
		out.Attempted += wr.Attempted
		out.Failed += wr.Failed
		if wr.Failed > 0 || wr.Refused > 0 {
			out.Correct = false
		}
		values := wr.Metrics
		if rep.Stamp.Traced {
			values = wr.Layers
		}
		for i, name := range names {
			v, ok := values[name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				out.Correct = false
				continue
			}
			key := name
			if len(rep.Workloads) > 1 {
				key = wr.Name + "/" + name
			}
			out.Metrics[key] = metricValue{Value: v, Unit: units[i]}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, out.Attempted, out.Failed), false
	}
	return string(data), out.Correct
}

// appendReport adds rep to the JSON array of reports stored at path.
func appendReport(path string, rep *runReport) error {
	reps, err := readReports(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	reps = append(reps, *rep)
	data, err := json.MarshalIndent(reps, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readReports loads a file written by appendReport.
func readReports(path string) ([]runReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []runReport
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}
