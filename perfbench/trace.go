package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"racelogic/internal/race"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions.  Spans of one operation share req;
// parent is the operation's root span, or -1 for a root.  The benchmark
// times only calls it makes itself, so a layer span never has children
// and its self time is its duration.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Pass   string `json:"pass"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; dump writes them out at the end.
type tracer struct {
	t0    time.Time
	spans []span
	reqs  int
	pass  string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq opens a root span for one operation and returns its id.  All
// span methods accept a nil tracer and then only run the work, so the
// untraced and traced runs share their code.
func (t *tracer) newReq(name string) int {
	if t == nil {
		return -1
	}
	t.reqs++
	return t.open(name, -1)
}

func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	req := t.reqs
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Pass: t.pass, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// do runs fn inside a span named name under parent.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.open(name, parent)
	fn()
	t.close(id)
}

// durations collects the durations of the spans named name in pass.
func (t *tracer) durations(pass, name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Pass == pass {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// medianIn returns the median of ds in the given unit.
func medianIn(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// runTraced is the traced run.  It passes once or more (until the run
// length is spent) over all four workloads at reduced size, with spans
// around every layer call, and reports the per-layer metrics, the
// attribution gaps and the tracing overhead.  Every workload's traced
// run reports the same metric set, each measured on the workload the
// README maps it to.
func runTraced(r *run) error {
	t := newTracer()
	seeded := makeSeededInputs(r.seed)
	scan := makeScanInputs(r.seed)
	ingest := makeIngestInputs(r.seed)
	pair, err := makePairInputs(r.seed)
	if err != nil {
		return err
	}
	lp := &layerProbes{r: r, t: t, compile: map[race.Backend][]float64{}, nsPerCycle: map[race.Backend][]float64{}}
	start := time.Now()
	for pass := 0; pass == 0 || !r.expired(start); pass++ {
		if err := lp.seededPass(seeded); err != nil {
			return err
		}
		if err := lp.scanPass(scan); err != nil {
			return err
		}
		if err := lp.ingestPass(ingest, filepath.Join(r.workDir, fmt.Sprintf("traced-%d", os.Getpid()))); err != nil {
			return err
		}
		if err := lp.pairPass(pair); err != nil {
			return err
		}
	}
	lp.report()
	path := filepath.Join(r.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
	if err := t.dump(path); err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(t.spans), path)
	return nil
}
