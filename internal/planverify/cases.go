package planverify

import (
	"fmt"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/conformance"
)

// payloadM is the base payload size in bytes, matching the conformance
// suite's M so the differential test exercises identical messages.
const payloadM = 11

// Case is one cell of the verification matrix: a conformance shape ×
// algorithm × payload/avoid variant.
type Case struct {
	// Name is "<cluster>/<graph>/<algo>/<variant>".
	Name  string
	Algo  string
	Shape conformance.Shape
	// Alltoall selects the algorithm's alltoall form ("alltoall" and
	// "alltoallv" variants).
	Alltoall bool
	// Counts is the per-block payload size (uniform or ragged): per
	// source rank, or per edge for an alltoall case.
	Counts []int
	// Avoid is the repair avoid set ("avoid" variant only).
	Avoid  []bool
	Params Params
}

// Extract builds the case's symbolic schedule.
func (c Case) Extract() (*Schedule, error) {
	if c.Alltoall {
		return ExtractAlltoall(c.Algo, c.Shape.Graph, c.Shape.Cluster, c.Counts, c.Params)
	}
	return Extract(c.Algo, c.Shape.Graph, c.Shape.Cluster, c.Counts, c.Avoid, c.Params)
}

// Cases returns the deterministic verification matrix: every
// conformance shape × every algorithm × {uniform, ragged} payload
// variants, plus an "avoid" variant per repair-capable algorithm (all
// but naive) with a fixed two-rank avoid set, plus "alltoall" and
// "alltoallv" variants (uniform, and the conformance suite's ragged
// per-edge sizes with zeros) per algorithm that has an alltoall form.
// The avoid variant uses two leaders per node so every node keeps an
// unimpaired leader candidate; all other variants use the conformance
// parameters (CN group 3, one leader per node, load-aware DH policy).
func Cases() ([]Case, error) {
	shapes, err := conformance.Shapes()
	if err != nil {
		return nil, err
	}
	// The algorithms that also have an alltoall form lead: the matrix's
	// historic order, which `nbr-verify -load` tables are diffed in.
	var algos []string
	for _, has := range []bool{true, false} {
		for _, algo := range Algos() {
			if collective.HasAlltoall(algo) == has {
				algos = append(algos, algo)
			}
		}
	}
	var cases []Case
	for _, sh := range shapes {
		n := sh.Graph.N()
		uniform := make([]int, n)
		for i := range uniform {
			uniform[i] = payloadM
		}
		ragged := conformance.RaggedCounts(n, payloadM)
		avoid := make([]bool, n)
		avoid[1] = true
		avoid[n/2] = true
		for _, algo := range algos {
			cases = append(cases,
				Case{Name: fmt.Sprintf("%s/%s/uniform", sh.Name, algo),
					Algo: algo, Shape: sh, Counts: uniform},
				Case{Name: fmt.Sprintf("%s/%s/ragged", sh.Name, algo),
					Algo: algo, Shape: sh, Counts: ragged})
			if algo != "naive" { // naive relays nothing: no repair variant
				cases = append(cases, Case{Name: fmt.Sprintf("%s/%s/avoid", sh.Name, algo),
					Algo: algo, Shape: sh, Counts: uniform, Avoid: avoid, Params: Params{Leaders: 2}})
			}
			if collective.HasAlltoall(algo) {
				cases = append(cases,
					Case{Name: fmt.Sprintf("%s/%s/alltoall", sh.Name, algo), Algo: algo, Shape: sh, Alltoall: true,
						Counts: collective.EdgeCounts(sh.Graph, collective.UniformCount(payloadM))},
					Case{Name: fmt.Sprintf("%s/%s/alltoallv", sh.Name, algo), Algo: algo, Shape: sh, Alltoall: true,
						Counts: collective.EdgeCounts(sh.Graph, conformance.RaggedEdgeCounts(payloadM))})
			}
		}
	}
	return cases, nil
}

// FindCase returns the matrix case with the given name.
func FindCase(name string) (Case, error) {
	cases, err := Cases()
	if err != nil {
		return Case{}, err
	}
	for _, c := range cases {
		if c.Name == name {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("planverify: no case named %q", name)
}
