package bench

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/world"
)

// TestTable5RowsShareOneMachine starts every Table-5 row on one root
// session per image and replays a seeded deck of their closures, as the
// repository benchmark's lmbench-mix replays its ops: a row that disturbs
// another (a handler that sig overhead counts, a port, the remote rows'
// peer stack) fails an op or a finish. The read and write rows then run
// past their file's end, where they reopen it. Every finish must pass, the
// image must end with its set-up task count and mount table, and the write
// file must stay within its bound.
func TestTable5RowsShareOneMachine(t *testing.T) {
	for _, mode := range modes {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		root, err := m.Session("root")
		if err != nil {
			t.Fatal(err)
		}
		tasks, mtab := m.K.TaskCount(), m.K.FS.FormatMtab()
		ops := make([]func() error, len(Table5Ops))
		finishes := make([]func() error, len(Table5Ops))
		for i, row := range Table5Ops {
			if ops[i], finishes[i], err = row.Start(m, root); err != nil {
				t.Fatalf("%s: start on %s: %v", row.Name, mode, err)
			}
		}
		// The deck deals every row 20 times, in a seeded order.
		for _, card := range rand.New(rand.NewSource(1)).Perm(20 * len(ops)) {
			i := card % len(ops)
			if err := ops[i](); err != nil {
				t.Fatalf("%s on %s: %v", Table5Ops[i].Name, mode, err)
			}
		}
		for i, row := range Table5Ops {
			if row.Name != "read" && row.Name != "write" {
				continue
			}
			for n := 0; n <= fileSize; n++ {
				if err := ops[i](); err != nil {
					t.Fatalf("%s on %s, op %d past the deck: %v", row.Name, mode, n, err)
				}
			}
		}
		for i, finish := range finishes {
			if err := finish(); err != nil {
				t.Errorf("%s: finish on %s: %v", Table5Ops[i].Name, mode, err)
			}
		}
		if n := m.K.TaskCount(); n != tasks {
			t.Errorf("%s: %d tasks live, %d at set-up", mode, n, tasks)
		}
		if got := m.K.FS.FormatMtab(); got != mtab {
			t.Errorf("%s: mount table changed:\n%s\nset-up:\n%s", mode, got, mtab)
		}
		if data, err := m.K.ReadFile(root, writePath); err != nil || len(data) > fileSize {
			t.Errorf("%s: write file: %v, %d bytes", mode, err, len(data))
		}
	}
}

func TestPostalSmoke(t *testing.T) {
	for _, mode := range modes {
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
	for _, mode := range modes {
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
	for _, mode := range modes {
		res, err := RunWeb(mode, 5, 50)
		if err != nil {
			t.Fatalf("web %s: %v", mode, err)
		}
		if res.Requests != 50 || res.TransferKBps <= 0 {
			t.Fatalf("web %s: %+v", mode, res)
		}
	}
}

// TestWebRejectsTooFewRequests: a web run in which some client would
// issue no request is an input error, returned before any machine is
// built.
func TestWebRejectsTooFewRequests(t *testing.T) {
	for _, c := range []struct{ concurrency, requests int }{{200, 150}, {0, 10}, {-1, 10}, {5, 0}, {5, -5}} {
		if _, err := RunWeb(kernel.ModeProtego, c.concurrency, c.requests); !errors.Is(err, errWebInput) {
			t.Errorf("RunWeb(%d clients, %d requests) = %v, want %v", c.concurrency, c.requests, err, errWebInput)
		}
	}
}

// TestShellRowDrainsTerminal: the fork+/bin/sh row's sh -c id prints on
// the root session's terminal, which 10,000 ops must leave at most one
// output long.
func TestShellRowDrainsTerminal(t *testing.T) {
	m, err := world.Build(world.Options{Mode: kernel.ModeProtego})
	if err != nil {
		t.Fatal(err)
	}
	root, err := m.Session("root")
	if err != nil {
		t.Fatal(err)
	}
	argv := []string{userspace.BinSh, "-c", userspace.BinID}
	res, err := m.K.Spawn(root, argv[0], argv, nil, kernel.SpawnOpts{Capture: true})
	if err != nil || res.Stdout == "" {
		t.Fatalf("sh -c id: %q, %v", res.Stdout, err)
	}
	var op, finish func() error
	for _, row := range Table5Ops {
		if row.Name == "fork+/bin/sh" {
			if op, finish, err = row.Start(m, root); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10000; i++ {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	if n := root.Stdout.(*bytes.Buffer).Len(); n > len(res.Stdout) {
		t.Fatalf("10,000 ops left %d bytes on the terminal, want at most one output, %d", n, len(res.Stdout))
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
	r = Row{Linux: 100, LinuxCI: [2]float64{96, 105}, Protego: 108, ProtegoCI: [2]float64{104, 112}}
	if !r.Noise() {
		t.Fatal("overlapping CIs not marked as noise")
	}
	r.ProtegoCI[0] = 106
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
	if len(rows) != len(Table5Ops) {
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
