// SpMM demo: the Section VII-C workload end to end. Distributes a
// sparse matrix X block-row-wise over the simulated cluster, derives
// the neighborhood graph from its block sparsity, gathers the dense
// operand Y with the Distance Halving neighborhood allgather, computes
// Z = X·Y, verifies against a serial reference, and reports the kernel
// time under each algorithm.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	nbr "nbrallgather"
	"nbrallgather/internal/harness"
)

func main() {
	cluster := nbr.Niagara(4, 6) // 48 ranks
	const width = 16             // dense columns of Y

	fmt.Printf("cluster: %s\n", cluster)
	for _, nm := range nbr.TableIIMatrices(1) {
		if nm.M.Rows > 500 {
			continue // demo the small matrices; nbr-bench -fig 7 runs all
		}
		kernel, err := nbr.NewSpMMKernel(nm.M, width, cluster.Ranks())
		if err != nil {
			log.Fatal(err)
		}
		g := kernel.Graph()
		fmt.Printf("\n%s (%d×%d, %d nnz, %s): neighborhood avg degree %.1f, block message %dB\n",
			nm.Name, nm.M.Rows, nm.M.Cols, nm.M.NNZ(), nm.Structure,
			g.AvgOutDegree(), kernel.MsgBytes())

		dh, err := nbr.NewDistanceHalving(g, cluster.L())
		if err != nil {
			log.Fatal(err)
		}

		// Numeric verification with real payloads.
		ref := kernel.Reference()
		_, err = nbr.Run(nbr.RunConfig{Cluster: cluster, WallLimit: 2 * time.Minute}, func(p *nbr.Proc) {
			z := kernel.RunRank(p, dh)
			lo, hi := kernel.BlockRange(p.Rank())
			for i, v := range z {
				want := ref[lo*width+i]
				if math.Abs(v-want) > 1e-9*(1+math.Abs(want)) {
					log.Fatalf("rank %d: Z[%d] = %v, want %v", p.Rank(), i, v, want)
				}
			}
			_ = hi
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  Z = X·Y verified against serial reference")

		// Kernel time comparison (communication + local multiply).
		rows, err := harness.SpMMSweepMatrices(cluster, []nbr.TableIIEntry{nm}, width, 3, 5*time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		r := rows[0]
		fmt.Printf("  naive %.3gms   DH %.3gms (%.2fx)   CN %.3gms (%.2fx, K=%d)\n",
			r.Naive.Mean*1e3, r.DH.Mean*1e3, r.SpeedupDH(), r.CN.Mean*1e3, r.SpeedupCN(), r.CNK)
	}
}
