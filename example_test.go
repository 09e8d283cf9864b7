package nbrallgather_test

import (
	"fmt"

	nbr "nbrallgather"
)

// ExampleNewDistanceHalving demonstrates the core flow: build a virtual
// topology, construct the Distance Halving collective, and compare its
// message count against the naive algorithm's.
func ExampleNewDistanceHalving() {
	cluster := nbr.Niagara(4, 6) // 48 ranks
	graph, _ := nbr.ErdosRenyi(cluster.Ranks(), 0.5, 7)
	dh, _ := nbr.NewDistanceHalving(graph, cluster.L())

	cfg := nbr.MeasureConfig{Cluster: cluster, MsgSize: 512, Trials: 1, Phantom: true}
	naive, _ := nbr.Measure(cfg, nbr.NewNaive(graph))
	fast, _ := nbr.Measure(cfg, dh)
	fmt.Printf("naive sends %d messages, distance halving %d\n",
		naive.MsgsPerTrial, fast.MsgsPerTrial)
	fmt.Printf("distance halving is faster: %v\n", fast.Mean < naive.Mean)
	// Output:
	// naive sends 1128 messages, distance halving 395
	// distance halving is faster: true
}

// ExampleMoore builds the structured stencil workload of the paper's
// Fig. 6.
func ExampleMoore() {
	dims, _ := nbr.MooreDims(64, 2)
	graph, _ := nbr.Moore(dims, 2)
	fmt.Printf("grid %v, every rank has %d neighbors\n", dims, graph.OutDegree(0))
	// Output:
	// grid [8 8], every rank has 24 neighbors
}

// ExampleRun uses the runtime directly for custom communication.
func ExampleRun() {
	cluster := nbr.Niagara(1, 2) // one node, 4 ranks
	report, _ := nbr.Run(nbr.RunConfig{Cluster: cluster}, func(p *nbr.Proc) {
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() - 1 + p.Size()) % p.Size()
		p.Send(next, 0, 8, []byte("ring msg"), nil)
		p.Recv(prev, 0)
	})
	fmt.Printf("ring exchanged %d messages\n", report.Msgs())
	// Output:
	// ring exchanged 4 messages
}
