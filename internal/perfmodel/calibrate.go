package perfmodel

import (
	"fmt"
	"time"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/topology"
)

// Calibrate recovers Hockney constants (α, β) for the analytical model
// the way the paper did — "parameters obtained from ping-pong tests
// conducted on the Niagara cluster" — by running ping-pongs between
// two inter-node ranks on the simulated substrate and fitting
// t(m) = α + m/β by least squares over a message-size ladder. The
// returned Params carry the fitted constants together with the
// cluster's communicator size and socket shape.
func Calibrate(c topology.Cluster, np netmodel.Params, sizes []int) (Params, error) {
	if c.Nodes < 2 {
		return Params{}, fmt.Errorf("perfmodel: calibration needs at least two nodes")
	}
	if len(sizes) < 2 {
		return Params{}, fmt.Errorf("perfmodel: calibration needs at least two message sizes")
	}
	peer := c.RanksPerNode() // first rank of node 1
	times := make([]float64, len(sizes))
	_, err := mpirt.Run(mpirt.Config{
		Cluster: c, Params: np, Phantom: true, WallLimit: 2 * time.Minute,
	}, func(p *mpirt.Proc) {
		for i, m := range sizes {
			p.SyncResetTime()
			const reps = 8
			switch p.Rank() {
			case 0:
				for k := 0; k < reps; k++ {
					p.Send(peer, tags.BenchPing, m, nil, nil)
					p.Recv(peer, tags.BenchPong)
				}
			case peer:
				for k := 0; k < reps; k++ {
					p.Recv(0, tags.BenchPing)
					p.Send(0, tags.BenchPong, m, nil, nil)
				}
			}
			t := p.CollectiveTime()
			if p.Rank() == 0 {
				// Half round trip per rep = one-way time.
				times[i] = t / (2 * reps)
			}
		}
	})
	if err != nil {
		return Params{}, err
	}

	// Least squares for t = α + m·invβ.
	var sx, sy, sxx, sxy float64
	n := float64(len(sizes))
	for i, m := range sizes {
		x, y := float64(m), times[i]
		sx += x
		sy += y
		sxx += float64(x * x)
		sxy += float64(x * y)
	}
	invBeta := (float64(n*sxy) - float64(sx*sy)) / (float64(n*sxx) - float64(sx*sx))
	alpha := (sy - float64(invBeta*sx)) / n
	if alpha <= 0 || invBeta <= 0 {
		return Params{}, fmt.Errorf("perfmodel: degenerate fit (α=%g, 1/β=%g)", alpha, invBeta)
	}
	return Params{
		N:     c.Ranks(),
		S:     c.SocketsPerNode,
		L:     c.RanksPerSocket,
		Alpha: alpha,
		Beta:  1 / invBeta,
	}, nil
}

// CalibrationSizes is the default ping-pong ladder (latency- through
// bandwidth-dominated).
var CalibrationSizes = []int{8, 64, 512, 4 << 10, 32 << 10, 256 << 10, 1 << 20}
