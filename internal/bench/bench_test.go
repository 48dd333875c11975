package bench

import (
	"testing"

	"protego/internal/kernel"
	"protego/internal/world"
)

// TestMicroSuiteRunsBothModes smoke-tests every microbenchmark on both
// kernels with tiny iteration counts.
func TestMicroSuiteRunsBothModes(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, test := range MicroSuite() {
			sess, err := m.Session(test.User())
			if err != nil {
				t.Fatal(err)
			}
			if err := test.Run(m, sess, 8); err != nil {
				t.Errorf("%s on %s: %v", test.Name, mode, err)
			}
		}
	}
}

func TestPostalSmoke(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		res, err := RunPostal(mode, 10)
		if err != nil {
			t.Fatalf("postal %s: %v", mode, err)
		}
		if res.Messages != 10 || res.MsgsPerMin <= 0 {
			t.Fatalf("postal %s: %+v", mode, res)
		}
	}
}

func TestCompileSmoke(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		res, err := RunCompile(mode, 20)
		if err != nil {
			t.Fatalf("compile %s: %v", mode, err)
		}
		if res.Files != 20 || res.Elapsed <= 0 {
			t.Fatalf("compile %s: %+v", mode, res)
		}
	}
}

func TestWebSmoke(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		res, err := RunWeb(mode, 5, 50)
		if err != nil {
			t.Fatalf("web %s: %v", mode, err)
		}
		if res.Requests != 50 || res.TransferKBps <= 0 {
			t.Fatalf("web %s: %+v", mode, res)
		}
	}
}

func TestRowOverheadSign(t *testing.T) {
	r := Row{Linux: 100, Protego: 110}
	if oh := r.OverheadPct(); oh != 10 {
		t.Fatalf("overhead = %v, want 10", oh)
	}
	r.HigherIsBetter = true // 110 units of throughput is an improvement
	if oh := r.OverheadPct(); oh != -10 {
		t.Fatalf("throughput overhead = %v, want -10", oh)
	}
	r = Row{Linux: 100, LinuxCI: 5, Protego: 108, ProtegoCI: 4}
	if !r.Noise() {
		t.Fatal("overlapping CIs not marked as noise")
	}
	r.ProtegoCI = 2
	if r.Noise() {
		t.Fatal("disjoint CIs marked as noise")
	}
}

// TestTable5SmallRun produces the full table at reduced scale and checks
// the shape claim: the mean microbenchmark overhead stays within a few
// percent (individual rows are noisy at test scale).
func TestTable5SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 in short mode")
	}
	rows, err := RunTable5(Table5Config{SkipMacro: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(MicroSuite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	var sum float64
	for i := range rows {
		sum += rows[i].OverheadPct()
	}
	mean := sum / float64(len(rows))
	if mean > 15 || mean < -15 {
		t.Fatalf("mean microbenchmark overhead %.1f%% — shape violated", mean)
	}
	out := FormatTable5(rows)
	if len(out) == 0 {
		t.Fatal("empty table")
	}
}
