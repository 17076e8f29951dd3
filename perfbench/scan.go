package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"racelogic"
)

// scan_batch: Database.SearchBatch full scans of fixed-length, read-like
// queries under the lanes backend at its default width.  The corpus
// spreads over many entry lengths with too few entries per length and
// shard to fill a pack from one query, so cross-query coalescing fills
// them.
const (
	scanPerLength    = 40
	scanMinLength    = 16
	scanMaxLength    = 39
	scanQueryLen     = 24
	scanBatchSize    = 6
	scanBatches      = 4 // per round
	scanTopK         = 10
	scanRebuildBlock = 50 // rebuilds timed after each round
	scanStreamSeed   = 2
)

type scanInputs struct {
	corpus  []string
	batches [][]string
	// want[b][i] is the expected top-K of query i of batch b: the K
	// smallest (reference score, ID) pairs over the whole corpus.
	want [][][]scored
}

type scored struct {
	id    int
	score int64
}

func makeScanInputs(seed int64) *scanInputs {
	g := newSeqRand(seed, scanStreamSeed)
	in := &scanInputs{}
	for l := scanMinLength; l <= scanMaxLength; l++ {
		for i := 0; i < scanPerLength; i++ {
			in.corpus = append(in.corpus, g.random(dnaAlphabet, l))
		}
	}
	g.Shuffle(len(in.corpus), func(a, b int) { in.corpus[a], in.corpus[b] = in.corpus[b], in.corpus[a] })
	for b := 0; b < scanBatches; b++ {
		var batch []string
		var want [][]scored
		for i := 0; i < scanBatchSize; i++ {
			// A read: a window of a long-enough entry with one or two
			// sequencing errors.
			var src string
			for len(src) < scanQueryLen {
				src = in.corpus[g.Intn(len(in.corpus))]
			}
			off := g.Intn(len(src) - scanQueryLen + 1)
			q := g.mutate(src[off:off+scanQueryLen], 1+g.Intn(2), 0)
			batch = append(batch, q)
			want = append(want, topKRef(q, in.corpus, scanTopK))
		}
		in.batches = append(in.batches, batch)
		in.want = append(in.want, want)
	}
	return in
}

// topKRef ranks every entry by (reference score, ID) and keeps k.
func topKRef(q string, corpus []string, k int) []scored {
	all := make([]scored, len(corpus))
	for i, e := range corpus {
		all[i] = scored{id: i, score: dnaRef(q, e)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score < all[b].score
		}
		return all[a].id < all[b].id
	})
	return all[:k]
}

func newScanDatabase(corpus []string) (*racelogic.Database, error) {
	return racelogic.NewDatabase(corpus, racelogic.WithBackend(racelogic.BackendLanes))
}

func (in *scanInputs) checkBatch(b int, reps []*racelogic.SearchReport) error {
	if len(reps) != len(in.batches[b]) {
		return fmt.Errorf("batch %d: %d reports for %d queries", b, len(reps), len(in.batches[b]))
	}
	for i, rep := range reps {
		if rep.Scanned != len(in.corpus) {
			return fmt.Errorf("batch %d query %d: scanned %d of %d", b, i, rep.Scanned, len(in.corpus))
		}
		want := in.want[b][i]
		if len(rep.Results) != len(want) {
			return fmt.Errorf("batch %d query %d: %d results, want %d", b, i, len(rep.Results), len(want))
		}
		for j, res := range rep.Results {
			if int(res.ID) != want[j].id || res.Score != want[j].score {
				return fmt.Errorf("batch %d query %d rank %d: (id %d, score %d), reference (id %d, score %d)",
					b, i, j, res.ID, res.Score, want[j].id, want[j].score)
			}
		}
	}
	return nil
}

func runScanBatch(r *run) error {
	in := makeScanInputs(r.seed)
	queries := scanBatches * scanBatchSize

	// The database is set up once before the rounds and again after
	// every round, so the set-up samples spread over the whole run.
	var setups, loads []float64
	setUp := func() (*racelogic.Database, error) {
		var db *racelogic.Database
		_, err := betweenRounds(func() error {
			t0 := time.Now()
			d, err := newScanDatabase(in.corpus)
			if err != nil {
				return err
			}
			reps, err := d.SearchBatch(in.batches[0], racelogic.WithTopK(scanTopK))
			setups = append(setups, time.Since(t0).Seconds())
			if err == nil {
				err = in.checkBatch(0, reps)
			}
			r.op(err)
			db = d
			return nil
		})
		return db, err
	}
	db, err := setUp()
	if err != nil {
		return err
	}

	// One untimed round compiles every engine shape.
	if _, err := scanRound(r, in, db, nil); err != nil {
		return err
	}
	var m meter
	var first *roundSim
	start := time.Now()
	for rounds := 0; rounds == 0 || !r.expired(start); rounds++ {
		sim, err := scanRound(r, in, db, &m)
		if err != nil {
			return err
		}
		r.sameAsFirst(&first, sim, rounds)
		// A rebuild from the corpus takes well under a millisecond; each
		// of a block of them is timed on its own, and the median over
		// the run reported, so a garbage collection that lands in one
		// moves only that sample.
		_, err = betweenRounds(func() error {
			for k := 0; k < scanRebuildBlock; k++ {
				t0 := time.Now()
				if _, err := newScanDatabase(in.corpus); err != nil {
					return err
				}
				loads = append(loads, time.Since(t0).Seconds())
			}
			return nil
		})
		if err != nil {
			return err
		}
		if _, err := setUp(); err != nil {
			return err
		}
	}
	answered := float64(len(m.lat) * scanBatchSize)
	r.set("setup_s", median(setups), "s")
	r.set("recovery_s", median(loads), "s")
	r.set("entries_ingested_per_s", float64(len(in.corpus))/median(loads), "1/s")
	r.set("search_p50_ms", quantile(m.lat, 0.5), "ms")
	r.set("search_p90_ms", quantile(m.lat, 0.9), "ms")
	r.set("searches_per_s", answered/m.wall.Seconds(), "1/s")
	r.set("cpu_ms_per_search", ms(m.cpu)/answered, "ms")
	r.set("aligns_per_s", float64(first.races)*answered/float64(queries)/m.wall.Seconds(), "1/s")
	r.setSim(first, queries)
	r.set("held_heap_mib", heldHeapMiB(), "MiB")
	runtime.KeepAlive(db)
	return nil
}

// scanRound runs every batch of the round once and checks each report.
func scanRound(r *run, in *scanInputs, db *racelogic.Database, m *meter) (*roundSim, error) {
	sim := &roundSim{}
	for b, batch := range in.batches {
		var reps []*racelogic.SearchReport
		var err error
		call := func() { reps, err = db.SearchBatch(batch, racelogic.WithTopK(scanTopK)) }
		if m != nil {
			m.time(call)
		} else {
			call()
		}
		if err == nil {
			err = in.checkBatch(b, reps)
		}
		r.op(err)
		if err != nil {
			continue
		}
		for _, rep := range reps {
			sim.add(rep.TotalCycles, rep.TotalEnergyJ, rep.Scanned)
		}
	}
	return sim, nil
}
