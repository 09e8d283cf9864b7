// Command nbr-bench regenerates the paper's figures and tables and the
// repository's own studies, one section each:
//
//	2            Fig. 2: the Section V performance model, and the model
//	             against the simulator
//	4, 5         Fig. 4: Random Sparse Graph latency; Fig. 5: its speedup
//	             scaling over three communicator sizes
//	6            Fig. 6: Moore neighborhoods
//	7, table2    Fig. 7: the SpMM kernel; Table II: its matrices
//	8            Fig. 8: pattern creation overhead
//	loadbalance  per-rank load imbalance on hub graphs (Section IV)
//	variance     run-to-run variance across seeded topologies
//	recovery     fail-stop recovery overhead per self-healing algorithm
//	degradation  degraded-fabric overhead per self-healing algorithm
//	critical     where the virtual time goes: each algorithm's critical
//	             path per phase on the cells that depart from the paper
//	mega         a ≥100k-rank phantom Moore sweep on the event engine
//
// -fig picks sections (a comma list, or all); -scale picks every
// section's cluster and sweep extents, from smoke (seconds) to full
// (the paper's 2160/2048 ranks: hours, several GB of RAM); -out DIR
// also writes each section to a file of its own:
//
//	nbr-bench -fig 4 -nodes 15 -rps 18
//	nbr-bench -fig all -scale smoke -out /tmp/r
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"nbrallgather/internal/harness"
	"nbrallgather/internal/prof"
	"nbrallgather/internal/sweep"
	"nbrallgather/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "nbr-bench: %v\n", err)
		os.Exit(1)
	}
}

// section is one selectable output. Its file under -out is file.txt;
// Fig. 4's carries its communicator size (the %d), so one directory
// holds the sweep at several -nodes, as results/medium/ does.
type section struct {
	name, file string
	run        func(w io.Writer, o *opts) error
}

var sections = []section{
	{"2", "fig2_model", fig2},
	{"4", "fig45_rsg_%dranks", fig4},
	{"5", "fig5_scaling", fig5},
	{"6", "fig6_moore", fig6},
	{"7", "fig7_spmm", fig7},
	{"8", "fig8_overhead", fig8},
	{"table2", "table2", table2},
	{"loadbalance", "loadbalance", loadBalance},
	{"variance", "variance", variance},
	{"recovery", "recovery", recovery},
	{"degradation", "degradation", degradation},
	{"critical", "critical", critical},
	{"mega", "mega", mega},
}

// shape is a Niagara-like cluster: nodes × 2 sockets × rps ranks.
type shape struct{ nodes, rps int }

// scaleCfg is one -scale row: a cluster per figure and the sweep
// extents.
type scaleCfg struct {
	model shape // Fig. 2's simulated validation (the model itself is always n=2160, L=18)
	rsg   shape // Figs. 4/5 (Fig. 5 also runs nodes/4 and nodes/2), loadbalance, variance, recovery, degradation
	moore shape // Fig. 6
	spmm  shape // Fig. 7
	ov    shape // Fig. 8

	trials, maxMsg, varianceSeeds, megaRanks int
	mooreSizes                               []int
}

var scales = map[string]scaleCfg{
	"smoke":  {shape{2, 2}, shape{2, 2}, shape{2, 2}, shape{2, 2}, shape{2, 2}, 1, 4 << 10, 2, 1024, []int{4 << 10}},
	"small":  {shape{8, 6}, shape{8, 6}, shape{8, 6}, shape{4, 6}, shape{8, 6}, 3, 1 << 20, 5, 102400, []int{4 << 10, 256 << 10}},
	"medium": {shape{15, 6}, shape{15, 18}, shape{16, 16}, shape{4, 16}, shape{15, 18}, 2, 1 << 20, 5, 102400, harness.PaperMooreSizes},
	"full":   {shape{60, 18}, shape{60, 18}, shape{64, 16}, shape{4, 16}, shape{60, 18}, 3, 4 << 20, 5, 102400, harness.PaperMooreSizes},
}

// opts is one run's configuration: the -scale row after the flag
// overrides, plus the flags only some sections read.
type opts struct {
	scaleCfg
	seed                    int64
	wall                    time.Duration
	csv, scatter, calibrate bool
	width, degMsg, megaMsg  int
	mm                      string
}

// cluster builds s, scattered across the fabric under -scatter.
func (o *opts) cluster(s shape) topology.Cluster {
	c := topology.Niagara(s.nodes, s.rps)
	if o.scatter {
		return c.Scattered(o.seed)
	}
	return c
}

func run(args []string, out io.Writer) error {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	fs := flag.NewFlagSet("nbr-bench", flag.ContinueOnError)
	fs.SetOutput(out)
	figs := fs.String("fig", "4,5,6", "sections to run, a comma list of "+strings.Join(names, ", ")+", or all")
	scale := fs.String("scale", "small", "every section's cluster and sweep extents: smoke | small | medium | full (paper scale, slow)")
	outDir := fs.String("out", "", "also write each section to its own file in this directory")
	nodes := fs.Int("nodes", 0, "simulated nodes, overriding the scale's (Fig. 5: its largest size)")
	rps := fs.Int("rps", 0, "ranks per socket, overriding the scale's")
	trials := fs.Int("trials", 0, "timed repetitions per cell, overriding the scale's")
	maxMsg := fs.Int("max-msg", 0, "largest Fig. 4/5 message size in bytes, overriding the scale's")
	megaRanks := fs.Int("mega-ranks", 0, "communicator size for mega (a multiple of 64), overriding the scale's")
	o := &opts{}
	fs.Int64Var(&o.seed, "seed", 1, "graph, matrix and placement seed")
	fs.DurationVar(&o.wall, "wall", 30*time.Minute, "wall-clock budget per measurement")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of tables (Figs. 2 and 4–8)")
	fs.BoolVar(&o.scatter, "scatter", false, "scatter nodes across Dragonfly+ groups (the batch-scheduler placement the paper's jobs got); matters for structured topologies")
	fs.BoolVar(&o.calibrate, "calibrate", false, "Fig. 2: fit the model's α/β from simulated ping-pong tests (the paper's methodology) instead of the built-in constants")
	fs.IntVar(&o.width, "k", 32, "Fig. 7 dense operand width (columns of Y)")
	fs.StringVar(&o.mm, "mm", "", "Fig. 7: run this MatrixMarket file instead of the Table II set")
	fs.IntVar(&o.degMsg, "deg-msg", 1<<18, "per-rank payload size in bytes for degradation")
	fs.IntVar(&o.megaMsg, "mega-msg", 4096, "per-rank payload size in bytes for mega")
	pf := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, ok := scales[*scale]
	if !ok {
		return fmt.Errorf("unknown -scale %q (want smoke, small, medium or full)", *scale)
	}
	for _, s := range []*shape{&cfg.model, &cfg.rsg, &cfg.moore, &cfg.spmm, &cfg.ov} {
		s.nodes, s.rps = cmp.Or(*nodes, s.nodes), cmp.Or(*rps, s.rps)
	}
	cfg.trials, cfg.maxMsg, cfg.megaRanks = cmp.Or(*trials, cfg.trials), cmp.Or(*maxMsg, cfg.maxMsg), cmp.Or(*megaRanks, cfg.megaRanks)
	o.scaleCfg = cfg

	picked := strings.Split(*figs, ",")
	for _, name := range picked {
		if name != "all" && !slices.Contains(names, name) {
			return fmt.Errorf("unknown -fig section %q (want %s, or all)", name, strings.Join(names, ", "))
		}
	}
	all := slices.Contains(picked, "all")
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	return pf.Wrap(func() error {
		for _, s := range sections {
			if all || slices.Contains(picked, s.name) {
				if err := runSection(out, *outDir, s, o); err != nil {
					return fmt.Errorf("-fig %s: %w", s.name, err)
				}
			}
		}
		return nil
	})
}

// runSection prints s to out and, under -out, to its own file too.
func runSection(out io.Writer, dir string, s section, o *opts) error {
	if dir == "" {
		return s.run(out, o)
	}
	name := s.file
	if strings.Contains(name, "%d") {
		name = fmt.Sprintf(name, o.cluster(o.rsg).Ranks())
	}
	f, err := os.Create(filepath.Join(dir, name+".txt"))
	if err != nil {
		return err
	}
	err = s.run(io.MultiWriter(out, f), o)
	return errors.Join(err, f.Close())
}

// firstErr unwraps a sweep's aggregate error to the failure the
// sequential loop would have hit first.
func firstErr(err error) error {
	var agg *sweep.Error
	if errors.As(err, &agg) {
		return agg.First().Err
	}
	return err
}
