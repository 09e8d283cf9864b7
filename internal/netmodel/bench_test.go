package netmodel

import "testing"

// arrivalSink keeps the benchmarked Transfer result live.
var arrivalSink float64

// BenchmarkTransfer charges one 1 KiB message per op over each kind of
// path on niagara4: one hop (intra-socket), three (off-node: port and
// both NICs, the source NIC serialized), five (inter-group: the uplinks
// too), and five with the source uplink degraded, where every charge
// looks up the hop's fault list.
func BenchmarkTransfer(b *testing.B) {
	for _, bc := range []struct {
		name     string
		dst      int
		degraded bool
	}{
		{"intra-socket", 1, false},
		{"off-node", 8, false},
		{"inter-group", 16, false},
		{"inter-group-degraded", 16, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := New(niagara4(), NiagaraParams())
			if err != nil {
				b.Fatal(err)
			}
			if bc.degraded {
				if err := m.InjectFaults([]LinkFault{LinkDegraded(UplinkOf(0), 0, 4)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				arrivalSink = m.Transfer(0, bc.dst, 1024, 0)
			}
		})
	}
}
