package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// mustRun runs the command and fails the test on an error or on a
// sweep that stopped partway.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	if strings.Contains(out.String(), "partial results kept") {
		t.Fatalf("run %v: a sweep failed partway:\n%s", args, out.String())
	}
	return out.String()
}

// TestRunSmoke drives the default sections (Figs. 4, 5 and 6) at the
// smallest cluster that exercises every code path (8 ranks, one trial,
// tiny messages).
func TestRunSmoke(t *testing.T) {
	out := mustRun(t, "-nodes", "2", "-rps", "2", "-trials", "1", "-max-msg", "1024")
	for _, want := range []string{"Fig. 4", "Fig. 5", "Fig. 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSingleFigureCSV(t *testing.T) {
	out := mustRun(t, "-fig", "4", "-nodes", "2", "-rps", "2", "-trials", "1", "-max-msg", "512", "-csv")
	if strings.Contains(out, "Fig. 5") || strings.Contains(out, "Fig. 6") {
		t.Errorf("-fig 4 ran other figures:\n%s", out)
	}
}

// TestRunSections runs one section at a time at 8 to 24 ranks and
// checks what it must print.
func TestRunSections(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		prefix string
		want   []string
	}{
		// The model at paper parameters, then the Section VII-A
		// model-vs-simulation table end to end.
		{"fig2", []string{"-fig", "2", "-nodes", "2", "-rps", "2"}, "== Fig. 2 — performance model, n=2160 S=2 L=18 ==",
			[]string{"δ=0.70   8B"}},
		{"fig2-validate", []string{"-fig", "2", "-nodes", "2", "-rps", "6"}, "== Fig. 2",
			[]string{"== Model vs simulation, 2 nodes × 2 sockets × 6 ranks (24 ranks"}},
		{"fig2-csv", []string{"-fig", "2", "-scale", "smoke", "-csv"}, "delta,msg_bytes,t_naive_s,t_dh_s,speedup\n",
			[]string{"\n\ndelta,msg_bytes,model_speedup,sim_speedup\n"}},
		{"fig7-csv", []string{"-fig", "7", "-scale", "smoke", "-k", "4", "-csv"}, "SpMM cluster: 2 nodes",
			[]string{"matrix,order,nnz,", "comsol,"}},
		// Fig. 8's negotiation really exchanges messages, so this covers
		// the distributed builder end to end.
		{"fig8", []string{"-fig", "8", "-scale", "smoke"}, "overhead cluster: 2 nodes",
			[]string{"== Fig. 8 — pattern creation overhead", "δ=0.70"}},
		{"fig8-csv", []string{"-fig", "8", "-scale", "smoke", "-csv"}, "overhead cluster:",
			[]string{"density,dh_build_s,cn_build_s,"}},
		{"table2", []string{"-fig", "table2"}, "== Table II", []string{"dwt_193", "Heart1", "comsol"}},
		{"recovery", []string{"-fig", "recovery", "-scale", "smoke"}, "recovery cluster: 2 nodes",
			[]string{"rank 4 killed after 4 ops", "distance-halving"}},
		// One ER cell and one Moore cell of the critical path (the section
		// checks that each path sums to its time); the Moore case sets the
		// cluster by -nodes/-rps and checks its per-phase rows.
		{"critical", []string{"-fig", "critical", "-scale", "smoke"}, "== Critical path",
			[]string{"-- ER δ=0.05, 32B --", "-- Moore r=1,d=2, 4KB --", "distance-halving: ", "dh-final", "dh-build: "}},
		{"critical-moore", []string{"-fig", "critical", "-nodes", "2", "-rps", "2"}, "== Critical path",
			[]string{"Moore cells: 2 nodes × 2 sockets × 2 ranks (8 ranks", "-- Moore r=2,d=3, 4KB --", "  dh-step+0  ", "  cn-deliv  ", "  lb-gather  "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := mustRun(t, tc.args...)
			if !strings.HasPrefix(out, tc.prefix) {
				t.Errorf("output does not start with %q:\n%s", tc.prefix, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestRunMatrixMarketFile exercises -mm end to end: parse a real
// MatrixMarket file and push it through the Fig. 7 SpMM pipeline on an
// 8-rank cluster.
func TestRunMatrixMarketFile(t *testing.T) {
	mtx := filepath.Join(t.TempDir(), "tiny.mtx")
	src := "%%MatrixMarket matrix coordinate real general\n" +
		"8 8 10\n1 1 2\n2 1 1\n2 3 4\n3 4 1\n4 2 3\n5 6 1\n6 5 2\n7 8 1\n8 7 2\n8 8 1\n"
	if err := os.WriteFile(mtx, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, "-fig", "7", "-mm", mtx, "-nodes", "2", "-rps", "2", "-trials", "1", "-k", "2")
	if !strings.Contains(out, "8×8, 10 nonzeros") {
		t.Errorf("output missing matrix summary:\n%s", out)
	}
}

// TestRunSmokeScale runs every section at the smoke scale with -out
// and checks each file exists, is non-empty, and that the files hold
// exactly what stdout showed, in section order.
func TestRunSmokeScale(t *testing.T) {
	dir := t.TempDir()
	out := mustRun(t, "-fig", "all", "-scale", "smoke", "-out", dir)
	var files []byte
	for _, s := range sections {
		name := strings.Replace(s.file, "%d", "8", 1) // Fig. 4's smoke cluster has 8 ranks
		data, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Fatalf("missing output: %v", err)
		}
		if len(data) == 0 {
			t.Errorf("output %s is empty", name)
		}
		files = append(files, data...)
	}
	if string(files) != out {
		t.Errorf("files differ from stdout:\nfiles:\n%s\nstdout:\n%s", files, out)
	}
}

func TestRunUnknownScale(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "galactic", "-out", t.TempDir()}, &out); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestRunRejectsBadSections pins the -fig contract: every name must be
// a section or all, and nothing runs otherwise.
func TestRunRejectsBadSections(t *testing.T) {
	for _, figs := range []string{"3", "4,", "degradation,mega,json", "", "micro"} {
		var out bytes.Buffer
		if err := run([]string{"-fig", figs}, &out); err == nil || out.Len() > 0 {
			t.Errorf("-fig %q: err %v, output %q", figs, err, out.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunBadFlagAfterSection pins that an unknown flag stops the run
// before any section prints or -out creates its directory, whichever
// sections were picked.
func TestRunBadFlagAfterSection(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"fig2", []string{"-fig", "2", "-scale", "smoke"}},
		{"fig7", []string{"-fig", "7", "-scale", "smoke"}},
		{"fig8", []string{"-fig", "8", "-scale", "smoke"}},
		{"scale-out", []string{"-fig", "all", "-scale", "smoke", "-out", "out"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(tc.args, "-no-such-flag")
			if i := slices.Index(args, "-out"); i >= 0 {
				args[i+1] = filepath.Join(dir, args[i+1])
			}
			var out bytes.Buffer
			if err := run(args, &out); err == nil {
				t.Fatalf("%v: unknown flag accepted", args)
			}
			if strings.Contains(out.String(), "==") || strings.Contains(out.String(), "cluster:") {
				t.Errorf("%v: a section ran:\n%s", args, out.String())
			}
			if _, err := os.Stat(filepath.Join(dir, "out")); !os.IsNotExist(err) {
				t.Errorf("%v: -out directory created (stat: %v)", args, err)
			}
		})
	}
}

// tableRows returns the whitespace-split rows that follow the table
// header starting with first, up to the first line with a different
// field count.
func tableRows(out, first string) [][]string {
	var rows [][]string
	in := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == first:
			in = true
		case in && len(f) > 0 && (len(rows) == 0 || len(f) == len(rows[0])):
			rows = append(rows, f)
		default:
			in = false
		}
	}
	return rows
}

// TestRunMega drives the mega-scale sweep at a toy size (1024 ranks)
// and checks the table carries one row per algorithm with non-zero
// traffic and allocation churn.
func TestRunMega(t *testing.T) {
	out := mustRun(t, "-fig", "mega", "-mega-ranks", "1024")
	if !strings.Contains(out, "mega sweep: 1024 ranks") || !strings.Contains(out, "engine event") {
		t.Errorf("header wrong:\n%s", out)
	}
	rows := tableRows(out, "algo")
	if len(rows) != 3 {
		t.Fatalf("want 3 algorithm rows, got %d:\n%s", len(rows), out)
	}
	for _, r := range rows {
		// algo, CN K, virtual, msgs, bytes, max rank msgs, wall, heap live MiB, churn MiB, sys MiB, GCs
		msgs, _ := strconv.Atoi(r[3])
		byts, _ := strconv.Atoi(r[4])
		churn, _ := strconv.ParseFloat(r[9], 64)
		if msgs <= 0 || byts <= 0 || churn <= 0 {
			t.Errorf("row %s has an empty measurement: %v", r[0], r)
		}
	}
}

// TestRunMegaRejectsBadShape pins the rank-count contract: the 64-rank
// nodes must host it exactly.
func TestRunMegaRejectsBadShape(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "mega", "-mega-ranks", "100"}, &out); err == nil {
		t.Error("non-multiple-of-64 rank count accepted")
	}
}

// TestProfilingFlags runs a small figure with -cpuprofile/-memprofile
// and checks both profiles land on disk non-empty (pprof's proto
// encoding; contents are opaque here).
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	mustRun(t, "-fig", "4", "-nodes", "2", "-rps", "2", "-trials", "1", "-max-msg", "256",
		"-cpuprofile", cpu, "-memprofile", mem)
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// TestRunDegradation drives the degraded-fabric measurement at a toy
// shape: every scenario × algorithm row present, and the nic-down
// scenario actually routes at least one algorithm through the repair
// path.
func TestRunDegradation(t *testing.T) {
	out := mustRun(t, "-fig", "degradation", "-nodes", "4", "-rps", "2", "-deg-msg", "65536")
	rows := tableRows(out, "scenario")
	if len(rows) != 12 {
		t.Fatalf("%d degradation rows, want 12 (3 scenarios × 4 algorithms):\n%s", len(rows), out)
	}
	repaired := false
	for _, r := range rows {
		// scenario, algo, healthy, degraded, overhead, slowdown, recovered, rounds, repair, link detections, link detect time
		if r[2] == "0µs" || r[3] == "0µs" {
			t.Errorf("%s/%s: empty measurement %v", r[0], r[1], r)
		}
		if r[0] == "nic-down" && r[6] == "true" {
			repaired = true
			if r[9] == "0" {
				t.Errorf("%s/%s: repair with no link detections", r[0], r[1])
			}
		}
	}
	if !repaired {
		t.Error("nic-down scenario never exercised the repair path")
	}
}

// TestCommittedResults regenerates committed results/ files with the
// command lines EXPERIMENTS.md documents and compares every column but
// the host-time DH/CN plan ones. A change that moves one of these
// numbers has to commit the moved file.
func TestCommittedResults(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"fig2_model.txt", []string{"-fig", "2", "-scale", "medium"}},
		{"fig6_moore_512.txt", []string{"-fig", "6", "-nodes", "16", "-rps", "16"}},
		{"fig7_spmm_128.txt", []string{"-fig", "7", "-nodes", "4", "-rps", "16"}},
		{"medium/fig45_rsg_108ranks.txt", []string{"-fig", "4", "-scale", "medium", "-nodes", "3"}},
		// The only committed numbers that pass through fail-stop
		// detection and the degraded-link cost path.
		{"recovery.txt", []string{"-fig", "recovery"}},
		{"degradation.txt", []string{"-fig", "degradation"}},
		// Every row's path is checked to sum to its time as it prints.
		{"critical.txt", []string{"-fig", "critical", "-nodes", "15", "-rps", "18"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			want, got := strings.Split(maskPlan(string(data)), "\n"), strings.Split(maskPlan(mustRun(t, tc.args...)), "\n")
			for i := range max(len(want), len(got)) {
				if i >= len(want) || i >= len(got) || want[i] != got[i] {
					t.Fatalf("line %d differs (plan columns masked); regenerate with nbr-bench %s\nwant: %q\ngot:  %q",
						i+1, strings.Join(tc.args, " "), line(want, i), line(got, i))
				}
			}
		})
	}
}

// maskPlan normalises column spacing and blanks the DH and CN plan
// columns of comparison tables: they are host wall time, not simulated
// time.
func maskPlan(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) == 12 && strings.HasPrefix(f[5], "(K=") {
			f[8], f[9] = "-", "-"
		}
		lines[i] = strings.Join(f, " ")
	}
	return strings.Join(lines, "\n")
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}
