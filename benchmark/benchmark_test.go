package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/world"
)

// tinyConfig is BENCHMARK.json's configuration cut down to a few ops per
// round, so every workload runs in well under a second.
func tinyConfig(t *testing.T) *config {
	t.Helper()
	cfg, err := loadConfig(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seconds = 0.001
	cfg.sizes = sizes{setups: 2, minRounds: 2, probes: probeCounts{
		calls: probeBatch, parse: probeBatch, build: 1, clone: 1, fingerprint: 1,
		kernel: 1, userspace: 1, difffuzz: 1, vulngen: 1,
	}}
	ops := map[string]int{"lmbench-mix": 510, "setuid-utils": 18, "policy-churn": 2, "difffuzz": 2, "cve-replay": 1}
	for i := range cfg.Workloads {
		w := &cfg.Workloads[i]
		n, ok := ops[w.Name]
		if !ok {
			t.Fatalf("no tiny count for workload %s", w.Name)
		}
		w.OpsPerRound, w.WarmupOps = n, 1
		if w.PoolRounds > 0 {
			w.PoolRounds = 2
		}
	}
	return cfg
}

type resultJSON struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runCLI runs the command and decodes its last output line.
func runCLI(t *testing.T, cfg *config, opts *options, args ...string) (int, resultJSON, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-spans", filepath.Join(t.TempDir(), "spans.json"))
	code := run(args, &stdout, &stderr, cfg, opts)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

func TestEveryWorkloadPassesItsChecks(t *testing.T) {
	cfg := tinyConfig(t)
	for _, w := range cfg.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(cfg, &w, 1, cfg.Seconds, false, &options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.errs)
			}
			e2e, _ := endToEnd(cfg, res)
			if got := e2e["fail_ratio"]; got != 0 {
				t.Errorf("fail_ratio = %v", got)
			}
			for _, a := range res.arms {
				if len(a.rounds) < cfg.minRounds {
					t.Errorf("image %s ran %d rounds", res.inst.images()[a.img], len(a.rounds))
				}
				for _, s := range a.slowdowns {
					if !(s > 0) {
						t.Errorf("image %s: a round measured slowdown %v", res.inst.images()[a.img], s)
					}
				}
			}
		})
	}
}

// A collection run on the reference load's behalf would tie its ticks to
// the program's heap, so a tick must not allocate.
func TestReferenceTickDoesNotAllocate(t *testing.T) {
	r := newRefLoad()
	if n := testing.AllocsPerRun(10, func() { r.tick() }); n != 0 {
		t.Errorf("a reference tick allocates %v times", n)
	}
}

// A burst that slows one tick of three moves the mean slowdown, which
// scales throughput, but not the median, which scales latencies.
func TestSlowdowns(t *testing.T) {
	nominal := float64(refNominal)
	mean, med := slowdowns([]float64{nominal, 4 * nominal, nominal})
	if mean != 2 || med != 1 {
		t.Errorf("slowdowns = %v, %v, want 2, 1", mean, med)
	}
	if _, med := slowdowns([]float64{3 * nominal, nominal}); med != 2 {
		t.Errorf("median of two ticks = %v, want 2", med)
	}
}

func TestDecksAreDeterministic(t *testing.T) {
	cfg := tinyConfig(t)
	for _, tc := range []struct {
		workload string
		kinds    int
	}{{"lmbench-mix", len(lmOps)}, {"setuid-utils", len(setuidUtilOps)}} {
		n := 300 * tc.kinds
		a, b, other := buildDeck(tc.kinds, n, 1), buildDeck(tc.kinds, n, 1), buildDeck(tc.kinds, n, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two decks from seed 1 differ", tc.workload)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 1 and 2 deal the same deck", tc.workload)
		}
		counts := make([]int, tc.kinds)
		for _, k := range a {
			counts[k]++
		}
		for k, c := range counts {
			if c != 300 {
				t.Errorf("%s: op %d dealt %d times of %d, want an equal share", tc.workload, k, c, n)
			}
		}
	}
	pool := func(name string, seed int64) any {
		spec, _ := cfg.workload(name)
		inst, err := spec.setup(spec, seed, &options{})
		if err != nil {
			t.Fatal(err)
		}
		switch w := inst.(type) {
		case *diffFuzz:
			return w.traces
		case *cveReplay:
			return w.scenarios
		}
		return nil
	}
	for _, name := range []string{"difffuzz", "cve-replay"} {
		if !reflect.DeepEqual(pool(name, 1), pool(name, 1)) {
			t.Errorf("%s: two input pools from seed 1 differ", name)
		}
		if reflect.DeepEqual(pool(name, 1), pool(name, 2)) {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", name)
		}
	}
}

// BENCHMARK.json lists every workload the benchmark defines, and the
// metrics only printed do not reuse the names of the listed ones.
func TestBenchmarkJSONListsEveryWorkload(t *testing.T) {
	cfg := tinyConfig(t)
	if len(cfg.Workloads) != len(workloadSpecs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(cfg.Workloads), len(workloadSpecs))
	}
	for _, w := range workloadSpecs {
		if _, ok := cfg.workload(w.Name); !ok {
			t.Errorf("workload %s is not in BENCHMARK.json", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range cfg.Metrics {
		if seen[m.Name] {
			t.Errorf("end-to-end metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bad, []byte(`{"run_seconds": 1, "workloads": [{"name": "lmbench"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadConfig(bad); err == nil {
		t.Error("an unknown workload name loads")
	}
}

// The result line holds exactly the metrics BENCHMARK.json lists: the
// end-to-end ones untraced, the per-layer ones traced.
func TestResultLineHasExactlyTheListedMetrics(t *testing.T) {
	cfg := tinyConfig(t)
	var gated, layers []string
	for _, m := range cfg.Metrics {
		if m.Gated {
			gated = append(gated, m.Name)
		}
	}
	for _, l := range cfg.PerLayer {
		layers = append(layers, l.Name)
	}
	for _, tc := range []struct {
		trace string
		want  []string
	}{{"0", gated}, {"1", layers}} {
		code, res, stderr := runCLI(t, cfg, &options{}, "-workload", "lmbench-mix", "-trace", tc.trace)
		if code != 0 || !res.Correct || res.Failed != 0 {
			t.Fatalf("trace %s: exit %d, %+v\n%s", tc.trace, code, res, stderr)
		}
		var got []string
		for name, v := range res.Metrics {
			got = append(got, name)
			if v.Value != v.Value {
				t.Errorf("trace %s: %s is NaN", tc.trace, name)
			}
		}
		sort.Strings(got)
		sort.Strings(tc.want)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("trace %s: metrics\n%v\nwant\n%v", tc.trace, got, tc.want)
		}
	}
}

// With Protego's mount policy broken, the expected mount denials of
// setuid-utils and policy-churn succeed: the checks must count them and
// the run must fail.
func TestBrokenMountPolicyFailsTheRun(t *testing.T) {
	cfg := tinyConfig(t)
	for _, name := range []string{"setuid-utils", "policy-churn"} {
		code, res, stderr := runCLI(t, cfg, &options{breakMountPolicy: true}, "-workload", name)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: exit %d, %+v", name, code, res)
		}
		if !strings.Contains(stderr, "unexpectedly granted") {
			t.Errorf("%s: no unexpected grant reported:\n%s", name, stderr)
		}
	}
}

// An expected denial passes only as that image's refusal: a failed exec,
// a grant, or a refusal for another reason (here a wrong password) fails.
func TestDenialMustBeThePolicyRefusal(t *testing.T) {
	missing := deny("sudo", sudoIDDenial.refuse[0], sudoIDDenial.refuse[1], "/usr/bin/no-such-sudo", userspace.BinID)
	wrongPassword := sudoIDDenial // alice, with no password to give
	for img, mode := range twoImages {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		session := func(user string) *kernel.Task {
			s, err := m.Session(user)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		charlie, alice := session("charlie"), session("alice")
		for _, tc := range []struct {
			name string
			call utilCall
			sess *kernel.Task
			want string // "" for a pass
		}{
			{"policy refusal", sudoIDDenial, charlie, ""},
			{"failed exec", missing, charlie, "exec"},
			{"wrong password", wrongPassword, alice, "want a denial"},
			{"grant", grant("sudo", nil, userspace.BinSudo, userspace.BinLs, "/"), charlie, ""},
			{"refused grant", grant("sudo", nil, userspace.BinSudo, userspace.BinID), charlie, "exit 1"},
		} {
			err := tc.call.do(nil, img, m, tc.sess)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s, %s: %v", imageName(mode), tc.name, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s, %s: got %v, want an error with %q", imageName(mode), tc.name, err, tc.want)
			}
		}
	}
}

func TestCompareExitsNonZeroOnRegression(t *testing.T) {
	cfg := tinyConfig(t)
	dir := t.TempDir()
	report := func(path string, opsPerS float64) {
		for i := 0; i < 5; i++ {
			rep := runReport{Workloads: []workloadReport{{
				Name:    "lmbench-mix",
				Metrics: map[string]float64{"ops_per_s": opsPerS + float64(i), "fail_ratio": 0},
			}}}
			if err := appendReport(path, &rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	parent, same, slower := filepath.Join(dir, "p.json"), filepath.Join(dir, "s.json"), filepath.Join(dir, "w.json")
	report(parent, 1000)
	report(same, 1001)
	report(slower, 700)
	var out bytes.Buffer
	if code := compareReports(cfg, parent, same, &out, &out); code != 0 {
		t.Errorf("unchanged: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(cfg, parent, slower, &out, &out); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("30%% slower: exit %d\n%s", code, out.String())
	}
}
