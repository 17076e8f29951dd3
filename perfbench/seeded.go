package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"racelogic"
	"racelogic/internal/server"
)

// seeded_lookup: POST /search through the in-process HTTP handler over a
// seed-indexed database on the served defaults.  The queries are planted
// homologs — mutated copies of corpus entries — and a fixed share of each
// round repeats an earlier query so the report cache answers it.
const (
	seededCorpus         = 30000
	seededK              = 9
	seededUnique         = 96 // distinct queries per round
	seededRepeats        = 24 // requests per round that repeat an earlier one
	seededTopK           = 10
	seededCacheSize      = 128 // the served default (raceserve -cache)
	seededSetupsPerRound = 2
	seededMaxSubs        = 2
	seededMaxIndels      = 1
	seededStreamSeed     = 1
)

var seededLengths = []int{16, 20, 24, 28}

// seededCandidates is, per source length, the median number of corpus
// entries that share a k-mer with a planted query, measured over
// thousands of queries on several seeds.
var seededCandidates = []int{11, 16, 21, 26}

// plantedQuery is one seeded search: the query, the entry it was
// mutated from, its edit budget, and how many entries share a k-mer
// with it in the benchmark's own index.
type plantedQuery struct {
	query  string
	source int // corpus index = stable ID
	budget int // substitutions + indels applied
	scans  int // entries the seed index must give the query
	repeat bool
}

type seededInputs struct {
	corpus []string
	setup  plantedQuery // the set-up's request
	round  []plantedQuery
}

func makeSeededInputs(seed int64) *seededInputs {
	g := newSeqRand(seed, seededStreamSeed)
	in := &seededInputs{corpus: make([]string, seededCorpus)}
	// The benchmark's own k-mer index of the corpus gives each query's
	// scan size.
	idx := newKmerIndex(seededK)
	for i := range in.corpus {
		in.corpus[i] = g.random(dnaAlphabet, seededLengths[g.Intn(len(seededLengths))])
		idx.add(in.corpus[i])
	}
	// The round is stratified: every source length meets every edit
	// budget equally often, and every query shares a k-mer with the
	// median number of entries for its source length, so rounds of
	// different seeds carry the same mix of work.  The set-up's request
	// is drawn the same way from the first stratum, and its candidates
	// also cover every entry length, so it compiles the same engine
	// shapes on every seed.
	draw := func(i int, cover bool) plantedQuery {
		li := i % len(seededLengths)
		subs := 1 + (i/len(seededLengths))%seededMaxSubs
		indels := (i / (len(seededLengths) * seededMaxSubs)) % (seededMaxIndels + 1)
		for {
			src := g.Intn(len(in.corpus))
			if len(in.corpus[src]) != seededLengths[li] {
				continue
			}
			q := g.mutate(in.corpus[src], subs, indels)
			hits := idx.candidates(q)
			if len(hits) == seededCandidates[li] && (!cover || coversLengths(in.corpus, hits, seededLengths)) {
				return plantedQuery{query: q, source: src, budget: subs + indels, scans: len(hits)}
			}
		}
	}
	var uniq []plantedQuery
	for i := 0; i < seededUnique; i++ {
		uniq = append(uniq, draw(i, false))
	}
	// Each repeat follows its original within the round, well inside the
	// cache's capacity, so it is a hit in every round.
	repeatAt := map[int]int{}
	for _, pos := range g.Perm(seededUnique - 1)[:seededRepeats] {
		repeatAt[pos+1] = g.Intn(pos + 1)
	}
	for i, q := range uniq {
		in.round = append(in.round, q)
		if orig, ok := repeatAt[i]; ok {
			rep := uniq[orig]
			rep.repeat = true
			in.round = append(in.round, rep)
		}
	}
	in.setup = draw(0, true)
	return in
}

func newSeededDatabase(corpus []string) (*racelogic.Database, error) {
	return racelogic.NewDatabase(corpus, racelogic.WithSeedIndex(seededK))
}

func newSeededServer(db *racelogic.Database) (*server.Server, error) {
	return server.New(server.Config{DB: db, CacheSize: seededCacheSize})
}

// postSearch sends one POST /search through the handler and returns the
// recorder and the time spent inside ServeHTTP.
func postSearch(s http.Handler, q string) (*httptest.ResponseRecorder, time.Duration) {
	body, _ := json.Marshal(server.SearchRequest{Query: q, TopK: seededTopK})
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	s.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

// checkSeededResponse verifies one response against the benchmark's own
// references: every score against dnaRef, the ranking, the scan size
// against the benchmark's k-mer index, and the planted source.
func (in *seededInputs) checkSeededResponse(pq plantedQuery, rec *httptest.ResponseRecorder) (*server.SearchResponse, error) {
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("query %q: HTTP %d: %s", pq.query, rec.Code, rec.Body.String())
	}
	var resp server.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("query %q: decoding response: %v", pq.query, err)
	}
	if resp.Cached != pq.repeat {
		return nil, fmt.Errorf("query %q: cached=%v, want %v", pq.query, resp.Cached, pq.repeat)
	}
	if resp.Scanned != pq.scans || resp.Scanned+resp.Skipped != len(in.corpus) {
		return nil, fmt.Errorf("query %q: scanned %d skipped %d, want %d scanned of %d", pq.query, resp.Scanned, resp.Skipped, pq.scans, len(in.corpus))
	}
	if len(resp.Results) > seededTopK {
		return nil, fmt.Errorf("query %q: %d results above top-K %d", pq.query, len(resp.Results), seededTopK)
	}
	found := false
	for i, res := range resp.Results {
		if int(res.ID) >= len(in.corpus) || in.corpus[res.ID] != res.Sequence {
			return nil, fmt.Errorf("query %q: result %d names ID %d with another sequence", pq.query, i, res.ID)
		}
		if want := dnaRef(pq.query, res.Sequence); res.Score != want {
			return nil, fmt.Errorf("query %q: entry %d scored %d, reference %d", pq.query, res.ID, res.Score, want)
		}
		if i > 0 {
			prev := resp.Results[i-1]
			if prev.Score > res.Score || (prev.Score == res.Score && prev.ID >= res.ID) {
				return nil, fmt.Errorf("query %q: results out of (score, id) order at %d", pq.query, i)
			}
		}
		if int(res.ID) == pq.source {
			found = true
			if bound := int64(len(pq.query) + pq.budget); res.Score > bound {
				return nil, fmt.Errorf("query %q: planted source %d scored %d over its edit budget bound %d", pq.query, res.ID, res.Score, bound)
			}
		}
	}
	src := in.corpus[pq.source]
	if sharesKmer(pq.query, src, seededK) && !found {
		// Only a full top-K of entries at least as close may push the
		// source out.
		srcScore := dnaRef(pq.query, src)
		if len(resp.Results) < seededTopK || resp.Results[len(resp.Results)-1].Score > srcScore {
			return nil, fmt.Errorf("query %q: planted source %d (score %d) missing", pq.query, pq.source, srcScore)
		}
	}
	return &resp, nil
}

// seededSetup builds the memory-only service from the corpus and
// answers one request: the set-up that setup_s times.  It also returns
// the time to build the database alone (for entries_ingested_per_s) and
// with its front end (a restart, for recovery_s).
func seededSetup(r *run, in *seededInputs) (db *racelogic.Database, load, rebuild, setup time.Duration, err error) {
	t0 := time.Now()
	db, err = newSeededDatabase(in.corpus)
	load = time.Since(t0)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	s, err := newSeededServer(db)
	rebuild = time.Since(t0)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	rec, _ := postSearch(s, in.setup.query)
	setup = time.Since(t0)
	_, cerr := in.checkSeededResponse(in.setup, rec)
	r.op(cerr)
	return db, load, rebuild, setup, nil
}

func runSeededLookup(r *run) error {
	in := makeSeededInputs(r.seed)

	// The service is set up once before the rounds and again after every
	// round, so the set-up samples spread over the whole run.
	var setups, rebuilds, loads []float64
	setUp := func() (*racelogic.Database, error) {
		var db *racelogic.Database
		_, err := betweenRounds(func() error {
			d, load, rebuild, setup, err := seededSetup(r, in)
			if err != nil {
				return err
			}
			db = d
			loads = append(loads, load.Seconds())
			rebuilds = append(rebuilds, rebuild.Seconds())
			setups = append(setups, setup.Seconds())
			return nil
		})
		return db, err
	}
	db, err := setUp()
	if err != nil {
		return err
	}
	// One untimed round compiles every engine shape the round needs.
	if _, err := seededRound(r, in, db, nil); err != nil {
		return err
	}

	var m meter
	var first *roundSim
	start := time.Now()
	for rounds := 0; rounds == 0 || !r.expired(start); rounds++ {
		sim, err := seededRound(r, in, db, &m)
		if err != nil {
			return err
		}
		r.sameAsFirst(&first, sim, rounds)
		for k := 0; k < seededSetupsPerRound; k++ {
			if _, err := setUp(); err != nil {
				return err
			}
		}
	}

	n := float64(len(m.lat))
	r.set("setup_s", median(setups), "s")
	r.set("recovery_s", median(rebuilds), "s")
	r.set("entries_ingested_per_s", float64(len(in.corpus))/median(loads), "1/s")
	r.set("search_p50_ms", quantile(m.lat, 0.5), "ms")
	r.set("search_p90_ms", quantile(m.lat, 0.9), "ms")
	r.set("searches_per_s", n/m.wall.Seconds(), "1/s")
	r.set("cpu_ms_per_search", ms(m.cpu)/n, "ms")
	r.set("aligns_per_s", float64(first.races)*n/float64(len(in.round))/m.wall.Seconds(), "1/s")
	r.setSim(first, len(in.round))
	r.set("held_heap_mib", heldHeapMiB(), "MiB")
	runtime.KeepAlive(db)
	return nil
}

// seededRound serves one round through a fresh front end (a cold report
// cache, so every round sees the same hits) and checks every response.
// m, when non-nil, times the requests.  Cache hits race nothing, so they
// add no simulated work.
func seededRound(r *run, in *seededInputs, db *racelogic.Database, m *meter) (*roundSim, error) {
	s, err := newSeededServer(db)
	if err != nil {
		return nil, err
	}
	sim := &roundSim{}
	for _, pq := range in.round {
		var rec *httptest.ResponseRecorder
		if m != nil {
			m.time(func() { rec, _ = postSearch(s, pq.query) })
		} else {
			rec, _ = postSearch(s, pq.query)
		}
		resp, err := in.checkSeededResponse(pq, rec)
		r.op(err)
		if err == nil && !resp.Cached {
			sim.add(resp.TotalCycles, resp.TotalEnergyJ, resp.Scanned)
		}
	}
	return sim, nil
}
