package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/sweep"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// critical prints, on the cells where the reproduction departs from the
// paper (EXPERIMENTS.md), each algorithm's critical path for one phantom
// run (mpirt.Report.Path) summed per phase. It fails if a path does not
// sum to the run's time — what a closing CollectiveTime returns.
func critical(w io.Writer, o *opts) error {
	rsg, mo, ov := o.cluster(o.rsg), o.cluster(o.moore), o.cluster(o.ov)
	cells := []struct {
		label string
		c     topology.Cluster
		msg   int // 0: Fig. 8's pattern negotiation
		delta float64
		r, d  int // a Moore grid when r > 0
	}{
		{"ER δ=0.05, 32B", rsg, 32, 0.05, 0, 0},
		{"ER δ=0.30, 512KB", rsg, 512 << 10, 0.3, 0, 0},
		{"Moore r=1,d=2, 4KB", mo, 4 << 10, 0, 1, 2},
		{"Moore r=2,d=3, 4KB", mo, 4 << 10, 0, 2, 3},
		{"ER δ=0.30, pattern negotiation", ov, 0, 0.3, 0, 0},
	}
	out, err := sweep.Map(context.Background(), len(cells), func(i int) (string, error) {
		cell := cells[i]
		var g *vgraph.Graph
		dims, err := vgraph.MooreDims(cell.c.Ranks(), max(cell.d, 1))
		switch {
		case cell.r == 0:
			g, err = vgraph.ErdosRenyi(cell.c.Ranks(), cell.delta, o.seed+int64(cell.delta*1000))
		case err == nil:
			g, err = vgraph.Moore(dims, cell.r)
		}
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "\n-- %s --\n", cell.label)
		cfg := mpirt.Config{Cluster: cell.c, Ranks: g.N(), Phantom: true, WallLimit: o.wall, CriticalPath: true}
		if cell.msg == 0 {
			_, rep, err := pattern.BuildDistributed(cfg, g)
			if err = printPath(&b, "dh-build", rep, err); err != nil {
				return "", err
			}
			cn, err := collective.BuildCNAffinity(g, 4)
			if err == nil {
				rep, err = mpirt.Run(cfg, func(p *mpirt.Proc) { collective.BuildCNAffinityRank(p, cn) })
			}
			err = printPath(&b, "cn-build(K=4)", rep, err)
			return b.String(), err
		}
		for _, algo := range collective.Algos() {
			op, err := collective.New(algo, g, cell.c, collective.PlanParams{}, nil)
			if err != nil {
				return "", err
			}
			rep, err := mpirt.Run(cfg, func(p *mpirt.Proc) { // timed as Measure times it
				p.SyncResetTime()
				op.Run(p, nil, cell.msg, nil)
				p.CollectiveTime()
			})
			if err = printPath(&b, op.Name(), rep, err); err != nil {
				return "", fmt.Errorf("%s: %w", cell.label, err)
			}
		}
		return b.String(), nil
	})
	if err != nil {
		return firstErr(err)
	}
	_, err = fmt.Fprintf(w, "== Critical path — where the virtual time goes ==\nER cells: %s; Moore cells: %s; negotiation: %s\n"+
		"Per phase, the path's transits split into α and size/β at their distance class and queueing (the rest of the flight),\n"+
		"and the local time leading up to each send; the four columns of a total row sum to the algorithm's time.\n%s",
		rsg, mo, ov, strings.Join(out, ""))
	return err
}

// printPath prints rep's path summed per phase, in the order the path
// enters them, then in total, and names its dominant term.
func printPath(w io.Writer, name string, rep *mpirt.Report, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	order := []string{"total"}
	sums := map[string]*[5]float64{"total": {}} // α, size/β, queueing, local; transits
	for _, s := range rep.Path {
		l, step, epoch := tags.Phase(s.Tag)
		if step >= 0 {
			l += fmt.Sprintf("+%d", step)
		}
		if epoch > 0 {
			l += fmt.Sprintf("@e%d", epoch)
		}
		if sums[l] == nil {
			sums[l], order = &[5]float64{}, append(order, l)
		}
		d := [5]float64{s.Alpha, s.Wire, s.Queue, 0, 1}
		if s.Src < 0 {
			d = [5]float64{3: s.To - s.From}
		}
		for k := range d {
			sums[l][k] += d[k]
			sums["total"][k] += d[k]
		}
	}
	tot, dom, carrier := sums["total"], 0, order[1]
	if sum := tot[0] + tot[1] + tot[2] + tot[3]; math.Abs(sum-rep.Time) > 1e-12 {
		return fmt.Errorf("%s: path sums to %g, time %g", name, sum, rep.Time)
	}
	for k := range 4 {
		if tot[k] > tot[dom] {
			dom = k
		}
	}
	for _, l := range order[1:] {
		if sums[l][dom] > sums[carrier][dom] {
			carrier = l
		}
	}
	fmt.Fprintf(w, "%s: %s; dominant term %s (%.0f%%), most of it in %s\n",
		name, harness.FmtTime(rep.Time), [...]string{"α", "size/β", "queueing", "local"}[dom], 100*tot[dom]/rep.Time, carrier)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "phase\ttransits\tα\tsize/β\tqueueing\tlocal\tshare\t")
	for _, l := range append(order[1:], "total") {
		t := sums[l]
		fmt.Fprintf(tw, "%s\t%.0f\t", l, t[4])
		for k := range 4 { // queueing is a remainder: round off its sub-picosecond noise
			fmt.Fprintf(tw, "%s\t", harness.FmtTime(math.Round(t[k]*1e12)/1e12+0))
		}
		fmt.Fprintf(tw, "%.0f%%\t\n", 100*(t[0]+t[1]+t[2]+t[3])/rep.Time)
	}
	return tw.Flush()
}
