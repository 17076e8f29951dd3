package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"racelogic"
)

// ingest_durable: a durable database under the default durability
// options, except that time-triggered snapshots are off.  Each round
// builds a fresh database, runs a fixed stream of insert batches and
// removes with seeded searches after every insert, checkpoints, applies a
// fixed tail of further mutations, and then measures recovery by
// opening fresh copies of the directory.  The stream stays far below
// the default count trigger (racelogic.DefaultSnapshotEvery mutations),
// so no background snapshot ever fires and every recovery replays the
// same journal tail.
const (
	ingestBase        = 3000
	ingestK           = 8
	ingestBatches     = 48 // insert batches in the stream
	ingestBatchSize   = 32
	ingestRemoveEvery = 4 // a remove follows every 4th insert batch
	ingestRemoveIDs   = 4
	ingestSearches    = 2 // searches after every insert batch
	ingestWarmups     = 12
	ingestTailBatches = 6
	ingestTailSize    = 8
	ingestTailRemoves = 2
	ingestCopies      = 3 // recovered copies per round
	ingestSetups      = 6 // set-ups per round, the round's own included
	// The set-up's search is for a copy of a base entry of this length
	// that shares a k-mer with this many base entries.
	ingestSetupLength     = 24
	ingestSetupCandidates = 13
	ingestMaxDraws        = 10000
	ingestStreamSeed      = 3
)

var ingestLengths = []int{20, 22, 24, 26, 28, 30}

// ingestCandidates is, per entry length, the median number of live
// entries that share a k-mer with a search of the stream, measured over
// thousands of draws on several seeds.
var ingestCandidates = []int{11, 13, 15, 16, 17, 19}

// ingestStep is one mutation or search of the fixed stream.
type ingestStep struct {
	insert []string
	remove []uint64 // base-corpus IDs
	search int      // index into the planted search list; -1 = none
}

type ingestInputs struct {
	base  []string
	setup plantedQuery // the set-up's search; source = base ID
	// baseLedger holds the base entries, the live set the set-up's
	// search meets.
	baseLedger *ledger
	stream     []ingestStep
	tail       []ingestStep
	searches   []plantedQuery // source = offset of the planted entry among inserted entries
}

func makeIngestInputs(seed int64) *ingestInputs {
	g := newSeqRand(seed, ingestStreamSeed)
	in := &ingestInputs{}
	// The benchmark's own k-mer index follows the live set through the
	// stream and gives each search's scan size.  Entry numbers are base
	// indexes, then inserted entries in order.
	idx := newKmerIndex(ingestK)
	for i := 0; i < ingestBase; i++ {
		in.base = append(in.base, g.random(dnaAlphabet, ingestLengths[g.Intn(len(ingestLengths))]))
		idx.add(in.base[i])
	}
	// The set-up's search shares a k-mer with a fixed number of base
	// entries covering every entry length, so it compiles the same
	// engine shapes on every seed.
	for {
		src := g.Intn(ingestBase)
		if len(in.base[src]) != ingestSetupLength {
			continue
		}
		q := g.mutate(in.base[src], 1, 0)
		if hits := idx.candidates(q); len(hits) == ingestSetupCandidates && coversLengths(in.base, hits, ingestLengths) {
			in.setup = plantedQuery{query: q, source: src, budget: 1, scans: len(hits)}
			break
		}
	}
	in.baseLedger = &ledger{live: map[uint64]string{}}
	for i, e := range in.base {
		in.baseLedger.live[uint64(i)] = e
	}
	removable := g.Perm(ingestBase)
	nextRemove := func() []uint64 {
		ids := make([]uint64, ingestRemoveIDs)
		for i := range ids {
			ids[i] = uint64(removable[0])
			idx.remove(removable[0])
			removable = removable[1:]
		}
		return ids
	}
	batch := func(n int) []string {
		b := make([]string, n)
		for i := range b {
			b[i] = g.random(dnaAlphabet, ingestLengths[g.Intn(len(ingestLengths))])
			idx.add(b[i])
		}
		return b
	}
	var inserted []string
	byLen := map[int][]int{} // offsets into inserted, per length
	for b := 1; b <= ingestBatches; b++ {
		ins := batch(ingestBatchSize)
		in.stream = append(in.stream, ingestStep{insert: ins, search: -1})
		for _, e := range ins {
			byLen[len(e)] = append(byLen[len(e)], len(inserted))
			inserted = append(inserted, e)
		}
		if b%ingestRemoveEvery == 0 {
			in.stream = append(in.stream, ingestStep{remove: nextRemove(), search: -1})
		}
		// Every batch is followed by searches for mutated copies of
		// entries the stream has inserted so far, cycling through the
		// entry lengths, each scanning the median number of entries for
		// its length, so every seed searches the same mix.  A draw that
		// has not met its target after ingestMaxDraws tries (no seed has
		// needed that yet) takes what it last drew, so the loop ends.
		for k := 0; k < ingestSearches; k++ {
			li := len(in.searches) % len(ingestLengths)
			for len(byLen[ingestLengths[li]]) == 0 { // the first batch may lack a length
				li = (li + 1) % len(ingestLengths)
			}
			pool := byLen[ingestLengths[li]]
			for try := 1; ; try++ {
				off := pool[g.Intn(len(pool))]
				q := g.mutate(inserted[off], 1, 0)
				if n := len(idx.candidates(q)); n == ingestCandidates[li] || try == ingestMaxDraws {
					in.searches = append(in.searches, plantedQuery{query: q, source: off, budget: 1, scans: n})
					break
				}
			}
			in.stream = append(in.stream, ingestStep{search: len(in.searches) - 1})
		}
	}
	for b := 0; b < ingestTailBatches; b++ {
		in.tail = append(in.tail, ingestStep{insert: batch(ingestTailSize), search: -1})
	}
	for b := 0; b < ingestTailRemoves; b++ {
		in.tail = append(in.tail, ingestStep{remove: nextRemove(), search: -1})
	}
	return in
}

// ledger is the benchmark's own record of acknowledged mutations.
type ledger struct {
	live     map[uint64]string
	inserted []uint64 // IDs in insertion order
}

func (l *ledger) ids() []uint64 {
	out := make([]uint64, 0, len(l.live))
	for id := range l.live {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ingestTimes collects the measurements of every round.
type ingestTimes struct {
	setup, open []float64
	search      meter
	ingestRates []float64 // entries per second inside each Insert
}

func runIngestDurable(r *run) error {
	in := makeIngestInputs(r.seed)
	root := filepath.Join(r.workDir, fmt.Sprintf("ingest-%d", os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	defer os.RemoveAll(root)

	var t ingestTimes
	var first *roundSim
	var heap float64
	start := time.Now()
	for round := 0; round == 0 || !r.expired(start); round++ {
		dir := filepath.Join(root, fmt.Sprintf("round-%d", round))
		// Extra set-ups, each into a fresh directory and then closed, so
		// that setup_s is a median over several samples per round.
		for k := 1; k < ingestSetups; k++ {
			sdir := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
			db, err := ingestSetup(r, in, sdir, &t, nil, -1)
			if err != nil {
				return err
			}
			if err := db.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(sdir); err != nil {
				return err
			}
		}
		sim, err := ingestRound(r, in, dir, &t, func() {
			// Sampled with the round's database still open; only the
			// final round's figure is reported.
			heap = heldHeapMiB()
		}, nil)
		if err != nil {
			return err
		}
		r.sameAsFirst(&first, sim, round)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	n := float64(len(t.search.lat))
	q := float64(len(in.searches))
	r.set("setup_s", median(t.setup), "s")
	r.set("recovery_s", median(t.open), "s")
	r.set("entries_ingested_per_s", median(t.ingestRates), "1/s")
	r.set("search_p50_ms", quantile(t.search.lat, 0.5), "ms")
	r.set("search_p90_ms", quantile(t.search.lat, 0.9), "ms")
	r.set("searches_per_s", n/t.search.wall.Seconds(), "1/s")
	r.set("cpu_ms_per_search", ms(t.search.cpu)/n, "ms")
	r.set("aligns_per_s", float64(first.races)*n/q/t.search.wall.Seconds(), "1/s")
	r.setSim(first, len(in.searches))
	r.set("held_heap_mib", heap, "MiB")
	return nil
}

// ingestRound runs one whole round in dir, adds its timings to rt and
// returns its simulated work.  sampleHeap is called while the round's
// database is still open; t, when non-nil, records spans around the
// facade calls.
func ingestRound(r *run, in *ingestInputs, dir string, rt *ingestTimes, sampleHeap func(), t *tracer) (*roundSim, error) {
	main := filepath.Join(dir, "db")
	root := t.newReq("ingest.round")
	defer t.close(root)
	db, err := ingestSetup(r, in, main, rt, t, root)
	if err != nil {
		return nil, err
	}
	// Untimed: compile the engine shapes the round's searches race, so
	// the timed searches measure searching, not first-use compilation.
	// The first searches cover every query length against every entry
	// length of the base corpus.
	for _, pq := range in.searches[:ingestWarmups] {
		_, err := db.Search(pq.query)
		r.op(err)
	}

	sim := &roundSim{}
	l := &ledger{live: map[uint64]string{}}
	for i, e := range in.base {
		l.live[uint64(i)] = e
	}
	apply := func(st ingestStep) {
		switch {
		case st.insert != nil:
			var ids []uint64
			var err error
			t0 := time.Now()
			t.do("db.insert", root, func() { ids, err = db.Insert(st.insert...) })
			el := time.Since(t0)
			if err == nil && len(ids) != len(st.insert) {
				err = fmt.Errorf("insert of %d entries returned %d IDs", len(st.insert), len(ids))
			}
			if err == nil {
				for i, id := range ids {
					if _, dup := l.live[id]; dup {
						err = fmt.Errorf("insert reused live ID %d", id)
						break
					}
					l.live[id] = st.insert[i]
					l.inserted = append(l.inserted, id)
				}
				rt.ingestRates = append(rt.ingestRates, float64(len(ids))/el.Seconds())
			}
			r.op(err)
		case st.remove != nil:
			err := db.Remove(st.remove...)
			if err == nil {
				for _, id := range st.remove {
					delete(l.live, id)
				}
			}
			r.op(err)
		default:
			pq := in.searches[st.search]
			var rep *racelogic.SearchReport
			var err error
			rt.search.time(func() { t.do("db.search", root, func() { rep, err = db.Search(pq.query) }) })
			if err == nil {
				err = checkLedgerSearch(pq, l.inserted[pq.source], rep, l)
			}
			r.op(err)
			if err == nil {
				sim.add(rep.TotalCycles, rep.TotalEnergyJ, rep.Scanned)
			}
		}
	}
	for _, st := range in.stream {
		apply(st)
	}
	t.do("db.checkpoint", root, func() { err = db.Checkpoint() })
	r.op(err)
	tailFrom := len(l.inserted)
	for _, st := range in.tail {
		apply(st)
	}
	sampleHeap()

	// Recovery: open fresh copies of the directory, as a restart after a
	// crash would find it (the live database is still open, so nothing
	// of a clean shutdown has been written).
	for c := 0; c < ingestCopies; c++ {
		cp := filepath.Join(dir, fmt.Sprintf("copy-%d", c))
		if err := copyDir(main, cp); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		var rec *racelogic.Database
		t.do("db.open", root, func() { rec, err = racelogic.Open(cp, racelogic.WithSnapshotInterval(0)) })
		if err != nil {
			r.op(fmt.Errorf("open: %w", err))
			continue
		}
		rt.open = append(rt.open, time.Since(t0).Seconds())
		r.op(checkRecovered(rec, l, tailFrom, c == 0))
		r.op(rec.Close())
	}
	return sim, db.Close()
}

// ingestSetup builds the base database, makes it durable in dir and
// answers one search, adding the time this took to rt.setup.
func ingestSetup(r *run, in *ingestInputs, dir string, rt *ingestTimes, t *tracer, root int) (*racelogic.Database, error) {
	runtime.GC()
	t0 := time.Now()
	var db *racelogic.Database
	var err error
	t.do("db.new", root, func() { db, err = racelogic.NewDatabase(in.base, racelogic.WithSeedIndex(ingestK)) })
	if err != nil {
		return nil, err
	}
	t.do("db.persist", root, func() { err = db.Persist(dir, racelogic.WithSnapshotInterval(0)) })
	if err != nil {
		return nil, err
	}
	rep, err := db.Search(in.setup.query)
	rt.setup = append(rt.setup, time.Since(t0).Seconds())
	if err == nil {
		err = checkLedgerSearch(in.setup, uint64(in.setup.source), rep, in.baseLedger)
	}
	r.op(err)
	return db, nil
}

// checkLedgerSearch verifies a seeded search against the ledger and the
// reference scores.
func checkLedgerSearch(pq plantedQuery, srcID uint64, rep *racelogic.SearchReport, l *ledger) error {
	found := false
	for _, res := range rep.Results {
		seq, ok := l.live[res.ID]
		if !ok || seq != res.Sequence {
			return fmt.Errorf("query %q: result ID %d is not a live entry with that sequence", pq.query, res.ID)
		}
		if want := dnaRef(pq.query, seq); res.Score != want {
			return fmt.Errorf("query %q: entry %d scored %d, reference %d", pq.query, res.ID, res.Score, want)
		}
		if res.ID == srcID {
			found = true
			if bound := int64(len(pq.query) + pq.budget); res.Score > bound {
				return fmt.Errorf("query %q: planted entry scored %d over bound %d", pq.query, res.Score, bound)
			}
		}
	}
	if !found && sharesKmer(pq.query, l.live[srcID], ingestK) {
		return fmt.Errorf("query %q: planted entry %d missing", pq.query, srcID)
	}
	if rep.Scanned != pq.scans || rep.Scanned+rep.Skipped != len(l.live) {
		return fmt.Errorf("query %q: scanned %d skipped %d, want %d scanned of %d live", pq.query, rep.Scanned, rep.Skipped, pq.scans, len(l.live))
	}
	return nil
}

// checkRecovered compares a recovered database with the ledger: the
// live ID set, Len, and, when searchTail is set, an exact-match search
// for every entry the tail inserted after the checkpoint.  The copies of
// one round are byte-identical, so the searches run on the first only.
func checkRecovered(db *racelogic.Database, l *ledger, tailFrom int, searchTail bool) error {
	want := l.ids()
	got := db.IDs()
	if db.Len() != len(want) || len(got) != len(want) {
		return fmt.Errorf("recovered %d entries (Len %d), ledger has %d", len(got), db.Len(), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("recovered ID set differs from the ledger at rank %d: %d vs %d", i, got[i], want[i])
		}
	}
	if !searchTail {
		return nil
	}
	for _, id := range l.inserted[tailFrom:] {
		seq, ok := l.live[id]
		if !ok {
			continue
		}
		rep, err := db.Search(seq, racelogic.WithThreshold(int64(len(seq))))
		if err != nil {
			return err
		}
		hit := false
		for _, res := range rep.Results {
			if res.ID == id {
				hit = res.Score == int64(len(seq)) && res.Sequence == seq
				break
			}
		}
		if !hit {
			return fmt.Errorf("tail entry %d not found with its exact-match score %d after recovery", id, len(seq))
		}
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	// Flushed now, so the recovery timed next does not compete with the
	// copy's write-back.
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
