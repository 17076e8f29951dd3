package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"racelogic"
	"racelogic/internal/score"
)

// pair_align: the single-pair engines on the default backend.  A round
// races the same inputs through the plain and clock-gated DNA arrays,
// the BLOSUM62 generalized array and the DAG construction; the counts
// per kind give each a comparable share of the round.
const (
	pairDNALen     = 32
	pairGateRegion = 8
	pairDNAPairs   = 8
	pairProtLen    = 8
	pairProtPairs  = 2
	pairDAGLayers  = 8
	pairDAGWidth   = 8
	pairDAGs       = 2
	pairGraphBlock = 50 // graph builds timed after each round
	pairStreamSeed = 4
)

const proteinAlphabet = "ARNDCQEGHILKMFPSTWYV"

type pairDAG struct {
	nodes int
	edges []dagEdge
	want  int64
}

type pairInputs struct {
	dna      [][2]string
	dnaWant  []int64
	prot     [][2]string
	protWant []int64
	table    minPlusTable
	dags     []pairDAG
}

func makePairInputs(seed int64) (*pairInputs, error) {
	g := newSeqRand(seed, pairStreamSeed)
	in := &pairInputs{}
	for i := 0; i < pairDNAPairs; i++ {
		p := g.random(dnaAlphabet, pairDNALen)
		// Half the pairs are homologs, half unrelated.
		q := g.random(dnaAlphabet, pairDNALen)
		if i%2 == 0 {
			q = g.mutate(p, 4, 0)
		}
		in.dna = append(in.dna, [2]string{p, q})
		in.dnaWant = append(in.dnaWant, dnaRef(p, q))
	}
	prepared, err := score.BLOSUM62().PrepareForRace()
	if err != nil {
		return nil, err
	}
	in.table = minPlusTable{alphabet: prepared.Alphabet, gap: int64(prepared.Gap)}
	for _, row := range prepared.Sub {
		r := make([]int64, len(row))
		for j, w := range row {
			r[j] = int64(w)
		}
		in.table.sub = append(in.table.sub, r)
	}
	for i := 0; i < pairProtPairs; i++ {
		p, q := g.random(proteinAlphabet, pairProtLen), g.random(proteinAlphabet, pairProtLen)
		want, err := minPlusRef(p, q, in.table)
		if err != nil {
			return nil, err
		}
		in.prot = append(in.prot, [2]string{p, q})
		in.protWant = append(in.protWant, want)
	}
	for i := 0; i < pairDAGs; i++ {
		d := pairDAG{nodes: pairDAGLayers*pairDAGWidth + 1}
		// Layered: every node links to two nodes of the next layer, the
		// last layer to one sink.
		for l := 0; l+1 < pairDAGLayers; l++ {
			for w := 0; w < pairDAGWidth; w++ {
				from := l*pairDAGWidth + w
				for _, k := range g.Perm(pairDAGWidth)[:2] {
					d.edges = append(d.edges, dagEdge{from, (l+1)*pairDAGWidth + k, int64(1 + g.Intn(9))})
				}
			}
		}
		for w := 0; w < pairDAGWidth; w++ {
			d.edges = append(d.edges, dagEdge{(pairDAGLayers-1)*pairDAGWidth + w, d.nodes - 1, int64(1 + g.Intn(9))})
		}
		d.want = dagRef(d.nodes, d.edges, d.nodes-1)
		in.dags = append(in.dags, d)
	}
	return in, nil
}

type pairEngines struct {
	plain, gated *racelogic.DNAEngine
	prot         *racelogic.ProteinEngine
}

func newPairEngines() (*pairEngines, error) {
	plain, err := racelogic.NewDNAEngine(pairDNALen, pairDNALen)
	if err != nil {
		return nil, err
	}
	gated, err := racelogic.NewDNAEngine(pairDNALen, pairDNALen, racelogic.WithClockGating(pairGateRegion))
	if err != nil {
		return nil, err
	}
	prot, err := racelogic.NewProteinEngine(pairProtLen, pairProtLen, "BLOSUM62")
	if err != nil {
		return nil, err
	}
	return &pairEngines{plain: plain, gated: gated, prot: prot}, nil
}

// checkAlignment verifies a score against its reference and the
// traceback against the score: the two rows must spell p and q once
// gaps are dropped, and the columns must cost exactly the score.
func checkAlignment(kind, p, q string, a *racelogic.Alignment, want int64, colCost func(x, y byte) (int64, bool)) error {
	if !a.Found || a.Score != want {
		return fmt.Errorf("%s %q/%q: score %d (found %v), reference %d", kind, p, q, a.Score, a.Found, want)
	}
	if strings.ReplaceAll(a.AlignedP, "_", "") != p || strings.ReplaceAll(a.AlignedQ, "_", "") != q || len(a.AlignedP) != len(a.AlignedQ) {
		return fmt.Errorf("%s %q/%q: traceback rows %q/%q do not spell the inputs", kind, p, q, a.AlignedP, a.AlignedQ)
	}
	total := int64(0)
	for i := 0; i < len(a.AlignedP); i++ {
		c, ok := colCost(a.AlignedP[i], a.AlignedQ[i])
		if !ok {
			return fmt.Errorf("%s %q/%q: traceback column %d (%c/%c) is not an edge", kind, p, q, i, a.AlignedP[i], a.AlignedQ[i])
		}
		total += c
	}
	if total != want {
		return fmt.Errorf("%s %q/%q: traceback costs %d, score %d", kind, p, q, total, want)
	}
	return nil
}

func dnaColumn(x, y byte) (int64, bool) {
	switch {
	case x == '_' || y == '_':
		return 1, x != y
	case x == y:
		return 1, true
	default:
		return 0, false
	}
}

func (in *pairInputs) proteinColumn(x, y byte) (int64, bool) {
	if x == '_' || y == '_' {
		return in.table.gap, x != y
	}
	a, b := strings.IndexByte(in.table.alphabet, x), strings.IndexByte(in.table.alphabet, y)
	if a < 0 || b < 0 || in.table.sub[a][b] == never {
		return 0, false
	}
	return in.table.sub[a][b], true
}

// buildGraph loads one benchmark DAG into the public graph builder.
func buildGraph(d pairDAG) (*racelogic.Graph, error) {
	gr := racelogic.NewGraph()
	for v := 0; v < d.nodes; v++ {
		gr.AddNode(strconv.Itoa(v))
	}
	for _, ed := range d.edges {
		if err := gr.AddEdge(ed.from, ed.to, ed.w); err != nil {
			return nil, err
		}
	}
	return gr, nil
}

// pairRound runs one round.  m, when non-nil, times it as one
// operation; t, when non-nil, records a span around every engine call.
func pairRound(r *run, in *pairInputs, e *pairEngines, m *meter, t *tracer) *roundSim {
	sim := &roundSim{}
	var errs []error
	root := t.newReq("pair.round")
	defer t.close(root)
	body := func() {
		note := func(a *racelogic.Alignment) {
			sim.add(a.Metrics.Cycles, a.Metrics.EnergyJ, 1)
		}
		for i, pq := range in.dna {
			for _, eng := range []struct {
				kind string
				e    *racelogic.DNAEngine
			}{{"plain", e.plain}, {"gated", e.gated}} {
				var a *racelogic.Alignment
				var err error
				t.do("engine.dna."+eng.kind, root, func() { a, err = eng.e.Align(pq[0], pq[1]) })
				if err == nil {
					err = checkAlignment(eng.kind, pq[0], pq[1], a, in.dnaWant[i], dnaColumn)
				}
				errs = append(errs, err)
				if err == nil {
					note(a)
				}
			}
		}
		for i, pq := range in.prot {
			var a *racelogic.Alignment
			var err error
			t.do("engine.protein", root, func() { a, err = e.prot.Align(pq[0], pq[1]) })
			if err == nil {
				err = checkAlignment("protein", pq[0], pq[1], a, in.protWant[i], in.proteinColumn)
			}
			errs = append(errs, err)
			if err == nil {
				note(a)
			}
		}
		for _, d := range in.dags {
			gr, err := buildGraph(d)
			if err == nil {
				var got int64
				t.do("engine.dag", root, func() { got, err = gr.ShortestPath(d.nodes - 1) })
				if err == nil && got != d.want {
					err = fmt.Errorf("DAG shortest path %d, reference %d", got, d.want)
				}
			}
			errs = append(errs, err)
		}
	}
	if m != nil {
		m.time(body)
	} else {
		body()
	}
	for _, err := range errs {
		r.op(err)
	}
	return sim
}

func runPairAlign(r *run) error {
	in, err := makePairInputs(r.seed)
	if err != nil {
		return err
	}
	// The engines are set up once before the rounds and again after
	// every round, so the set-up samples spread over the whole run.
	var setups, builds, graphs []float64
	setUp := func() (*pairEngines, error) {
		var e *pairEngines
		_, err := betweenRounds(func() error {
			t0 := time.Now()
			eng, err := newPairEngines()
			if err != nil {
				return err
			}
			builds = append(builds, time.Since(t0).Seconds())
			pairRound(r, in, eng, nil, nil)
			setups = append(setups, time.Since(t0).Seconds())
			e = eng
			return nil
		})
		return e, err
	}
	e, err := setUp()
	if err != nil {
		return err
	}

	var m meter
	var first *roundSim
	start := time.Now()
	for rounds := 0; rounds == 0 || !r.expired(start); rounds++ {
		sim := pairRound(r, in, e, &m, nil)
		r.sameAsFirst(&first, sim, rounds)
		if _, err := setUp(); err != nil {
			return err
		}
		// Building a graph takes microseconds; each of a block of builds
		// is timed on its own and the median over the run reported.
		_, err = betweenRounds(func() error {
			for k := 0; k < pairGraphBlock; k++ {
				t0 := time.Now()
				for _, d := range in.dags {
					if _, err := buildGraph(d); err != nil {
						return err
					}
				}
				graphs = append(graphs, time.Since(t0).Seconds())
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	rounds := float64(len(m.lat))
	elements := 0
	for _, d := range in.dags {
		elements += d.nodes + len(d.edges)
	}
	calls := float64(first.races + len(in.dags))
	r.set("setup_s", median(setups), "s")
	r.set("recovery_s", median(builds), "s")
	r.set("entries_ingested_per_s", float64(elements)/median(graphs), "1/s")
	r.set("search_p50_ms", quantile(m.lat, 0.5), "ms")
	r.set("search_p90_ms", quantile(m.lat, 0.9), "ms")
	r.set("searches_per_s", rounds/m.wall.Seconds(), "1/s")
	r.set("cpu_ms_per_search", ms(m.cpu)/rounds, "ms")
	r.set("aligns_per_s", calls*rounds/m.wall.Seconds(), "1/s")
	r.setSim(first, first.races)
	r.set("held_heap_mib", heldHeapMiB(), "MiB")
	runtime.KeepAlive(e)
	return nil
}
