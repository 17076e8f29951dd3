package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"racelogic"
	"racelogic/internal/circuit"
	"racelogic/internal/dag"
	"racelogic/internal/index"
	"racelogic/internal/pipeline"
	"racelogic/internal/race"
	"racelogic/internal/score"
	"racelogic/internal/server"
	"racelogic/internal/store"
	"racelogic/internal/tech"
	"racelogic/internal/temporal"
)

// Reduced sizes of the traced passes: every uncached request of a
// seeded round is served, and every seededReplayEvery-th is replayed
// layer by layer.
const (
	seededReplayEvery = 4
	tracedPackRepeats = 20
	// circuit.compile_ms is a fresh array's first race minus the median
	// of tracedWarmAligns warm races, over tracedCompiles arrays.
	tracedCompiles   = 5
	tracedWarmAligns = 3
	// tracedOverheadRounds pairs of untraced and traced pair rounds
	// give the tracing overhead on aligns_per_s.
	tracedOverheadRounds = 3
)

// layerProbes accumulates the traced run's measurements across passes.
type layerProbes struct {
	r *run
	t *tracer

	// Differences and counts that are not single spans.
	serverOverhead   []float64 // ms, request minus db.search, same uncached query
	pipelineOverhead []float64 // ms, serial scan minus the sum of its races
	candidates       []float64
	requests, hits   int
	enginesWarm      int64
	untracedReq      []float64 // ms, the same round served without replays
	tracedReq        []float64
	laneFillSum      float64
	laneFillCount    float64
	toggles          []float64
	walBytes, walEnt int64
	compile          map[race.Backend][]float64 // ms
	nsPerCycle       map[race.Backend][]float64
	pairUntraced     []float64 // aligns per second
	pairTraced       []float64
}

var backends = []race.Backend{race.BackendCycle, race.BackendEvent, race.BackendLanes}

// shardParts splits a corpus into GOMAXPROCS parts, the database's
// default partition count, the way the database routes IDs, keeping
// each entry's global ID, so that the layer probes scan the same
// partitions as the facade.  samePartition checks the match.
func shardParts(corpus []string) ([][]string, [][]uint64) {
	n := runtime.GOMAXPROCS(0)
	parts, ids := make([][]string, n), make([][]uint64, n)
	for i, e := range corpus {
		s := shardOf(uint64(i), n)
		parts[s] = append(parts[s], e)
		ids[s] = append(ids[s], uint64(i))
	}
	return parts, ids
}

// shardOf is the database's documented routing of a stable ID to one of
// n shards, a splitmix64 finalizer that recovery depends on and that
// therefore never changes.
func shardOf(id uint64, n int) int {
	if n == 1 {
		return 0
	}
	x := id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// samePartition checks that the benchmark's shards hold as many entries
// as the database's.
func samePartition(db *racelogic.Database, bs *benchShards) error {
	stats := db.ShardStats()
	if len(stats) != len(bs.ids) {
		return fmt.Errorf("database has %d shards, the probes %d", len(stats), len(bs.ids))
	}
	for s, st := range stats {
		if st.Entries != len(bs.ids[s]) {
			return fmt.Errorf("database shard %d holds %d entries, the probe's %d", s, st.Entries, len(bs.ids[s]))
		}
	}
	return nil
}

// arrayFactory builds plain DNA arrays on backend b, as the database's
// own factory does for its default configuration.
func arrayFactory(b race.Backend) pipeline.Factory {
	return func(n, m int) (pipeline.Engine, error) {
		a, err := race.NewArray(n, m)
		if err != nil {
			return nil, err
		}
		a.SetBackend(b)
		return a, nil
	}
}

// benchShards is the benchmark's own partitioned pipeline over a corpus.
type benchShards struct {
	dbs  []*pipeline.DB
	ids  [][]uint64
	idx  []*index.Index
	arrs map[[2]int]*race.Array // per shape, for replayed races
}

func newBenchShards(corpus []string, b race.Backend, k int) (*benchShards, error) {
	pools, err := pipeline.NewPools(arrayFactory(b), tech.AMIS())
	if err != nil {
		return nil, err
	}
	parts, ids := shardParts(corpus)
	bs := &benchShards{ids: ids, arrs: map[[2]int]*race.Array{}}
	for _, p := range parts {
		d, err := pipeline.NewDBWith(p, pools)
		if err != nil {
			return nil, err
		}
		bs.dbs = append(bs.dbs, d)
		if k > 0 {
			ix, err := index.New(p, k)
			if err != nil {
				return nil, err
			}
			bs.idx = append(bs.idx, ix)
		}
	}
	return bs, nil
}

// scans returns one query's shard scans; cands are per-shard candidate
// lists or nil for a full scan.
func (bs *benchShards) scans(cands [][]int) []pipeline.ShardScan {
	out := make([]pipeline.ShardScan, len(bs.dbs))
	for s, d := range bs.dbs {
		out[s] = pipeline.ShardScan{DB: d, Snap: d.Snapshot(), IDs: bs.ids[s]}
		if cands != nil {
			out[s].Candidates = cands[s]
		}
	}
	return out
}

func (bs *benchShards) array(n, m int) (*race.Array, error) {
	if a, ok := bs.arrs[[2]int{n, m}]; ok {
		return a, nil
	}
	a, err := race.NewArray(n, m)
	if err != nil {
		return nil, err
	}
	// The first race compiles the simulator; keep it out of the spans.
	if _, err := a.Align(strings.Repeat("A", n), strings.Repeat("A", m)); err != nil {
		return nil, err
	}
	bs.arrs[[2]int{n, m}] = a
	return a, nil
}

func totalToggles(a circuit.Activity) float64 {
	t := uint64(0)
	for _, v := range a.NetToggles {
		t += v
	}
	return float64(t)
}

// seededPass serves one seeded round through the handler, replaying a
// share of its uncached queries layer by layer: the database facade,
// the seed index, the pipeline scan (default workers, then one worker),
// and every race of the scan on its own array.
func (lp *layerProbes) seededPass(in *seededInputs) error {
	t, r := lp.t, lp.r
	t.pass = "seeded_lookup"
	setup := t.newReq("seeded.setup")
	var db *racelogic.Database
	var err error
	t.do("db.new", setup, func() { db, err = newSeededDatabase(in.corpus) })
	if err != nil {
		return err
	}
	t.close(setup)
	bs, err := newBenchShards(in.corpus, race.BackendCycle, seededK)
	if err != nil {
		return err
	}
	r.op(samePartition(db, bs))
	// Warm-up, untraced: compile the shapes in both engine pools, and
	// time the round as the tracing-overhead baseline.
	var warm meter
	if _, err := seededRound(r, in, db, nil); err != nil {
		return err
	}
	for _, pq := range in.round {
		cands := make([][]int, len(bs.idx))
		for s, ix := range bs.idx {
			cands[s] = ix.Candidates(pq.query)
		}
		if _, err := pipeline.MultiSearch(bs.scans(cands), pq.query, pipeline.Request{Threshold: -1, TopK: seededTopK}); err != nil {
			return err
		}
	}
	if _, err := seededRound(r, in, db, &warm); err != nil {
		return err
	}
	lp.untracedReq = append(lp.untracedReq, warm.lat...)
	built0 := db.EnginesBuilt()

	s, err := newSeededServer(db)
	if err != nil {
		return err
	}
	uncached := 0
	for _, pq := range in.round {
		root := t.newReq("seeded.request")
		var rec *httptest.ResponseRecorder
		var el time.Duration
		t.do("server.request", root, func() { rec, el = postSearch(s, pq.query) })
		lp.tracedReq = append(lp.tracedReq, ms(el))
		resp, err := in.checkSeededResponse(pq, rec)
		r.op(err)
		lp.requests++
		if err != nil {
			t.close(root)
			continue
		}
		if resp.Cached {
			lp.hits++
			t.close(root)
			continue
		}
		uncached++
		if uncached%seededReplayEvery != 1 {
			t.close(root)
			continue
		}
		r.op(lp.replaySeeded(root, db, bs, pq, resp, el))
		t.close(root)
	}
	lp.enginesWarm += db.EnginesBuilt() - built0
	runtime.KeepAlive(db)
	return nil
}

// replaySeeded re-runs one uncached query below the HTTP layer and
// checks that every layer agrees with the served response.
func (lp *layerProbes) replaySeeded(root int, db *racelogic.Database, bs *benchShards, pq plantedQuery, served *server.SearchResponse, el time.Duration) error {
	t := lp.t
	q := pq.query
	var rep *racelogic.SearchReport
	var err error
	t0 := time.Now()
	t.do("db.search", root, func() { rep, err = db.Search(q, racelogic.WithTopK(seededTopK)) })
	lp.serverOverhead = append(lp.serverOverhead, ms(el-time.Since(t0)))
	if err != nil {
		return err
	}
	want := make([]uint64, len(served.Results))
	for i, res := range served.Results {
		want[i] = res.ID
	}
	got := make([]uint64, len(rep.Results))
	for i, res := range rep.Results {
		got[i] = res.ID
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("query %q: Database.Search ranked %v, the server %v", q, got, want)
	}

	cands := make([][]int, len(bs.idx))
	total := 0
	t.do("index.candidates", root, func() {
		for s, ix := range bs.idx {
			cands[s] = ix.Candidates(q)
			total += len(cands[s])
		}
	})
	lp.candidates = append(lp.candidates, float64(total))
	if total != served.Scanned {
		return fmt.Errorf("query %q: index returned %d candidates, the server scanned %d", q, total, served.Scanned)
	}

	for _, c := range []struct {
		name    string
		workers int
	}{{"pipeline.scan", 0}, {"pipeline.scan_serial", 1}} {
		var prep *pipeline.Report
		t.do(c.name, root, func() {
			prep, err = pipeline.MultiSearch(bs.scans(cands), q, pipeline.Request{Threshold: -1, TopK: seededTopK, Workers: c.workers})
		})
		if err != nil {
			return err
		}
		got = got[:0]
		for _, res := range prep.Results {
			got = append(got, res.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("query %q: %s ranked %v, the server %v", q, c.name, got, want)
		}
	}
	serial := t.spans[len(t.spans)-1]

	// Every race of the scan, one at a time on its own array.
	races := time.Duration(0)
	for s, cs := range cands {
		snap := bs.dbs[s].Snapshot()
		for _, slot := range cs {
			entry := snap.Entry(slot)
			a, err := bs.array(len(q), len(entry))
			if err != nil {
				return err
			}
			var res *race.AlignResult
			t0 := time.Now()
			t.do("race.align.seeded", root, func() { res, err = a.Align(q, entry) })
			races += time.Since(t0)
			if err != nil {
				return err
			}
			if want := dnaRef(q, entry); int64(res.Score) != want {
				return fmt.Errorf("query %q: race against %q scored %d, reference %d", q, entry, res.Score, want)
			}
			lp.toggles = append(lp.toggles, totalToggles(res.Activity))
		}
	}
	lp.pipelineOverhead = append(lp.pipelineOverhead, ms(time.Duration(serial.End-serial.Start)-races))
	return nil
}

// scanPass runs the scan_batch batches once through the facade and once
// through the benchmark's own partitioned pipeline, then races full lane
// packs on one array.
func (lp *layerProbes) scanPass(in *scanInputs) error {
	t, r := lp.t, lp.r
	t.pass = "scan_batch"
	db, err := newScanDatabase(in.corpus)
	if err != nil {
		return err
	}
	bs, err := newBenchShards(in.corpus, race.BackendLanes, 0)
	if err != nil {
		return err
	}
	r.op(samePartition(db, bs))
	if _, err := scanRound(r, in, db, nil); err != nil {
		return err
	}
	sets := func(batch []string) [][]pipeline.ShardScan {
		out := make([][]pipeline.ShardScan, len(batch))
		for i := range out {
			out[i] = bs.scans(nil)
		}
		return out
	}
	for _, batch := range in.batches {
		if _, err := pipeline.MultiSearchBatch(sets(batch), batch, pipeline.Request{Threshold: -1, TopK: scanTopK}); err != nil {
			return err
		}
	}
	sum0, count0 := laneFill(db)
	for b, batch := range in.batches {
		root := t.newReq("scan.batch")
		var reps []*racelogic.SearchReport
		t.do("db.search_batch", root, func() { reps, err = db.SearchBatch(batch, racelogic.WithTopK(scanTopK)) })
		if err == nil {
			err = in.checkBatch(b, reps)
		}
		r.op(err)
		var preps []*pipeline.Report
		t.do("pipeline.batch_scan", root, func() {
			preps, err = pipeline.MultiSearchBatch(sets(batch), batch, pipeline.Request{Threshold: -1, TopK: scanTopK})
		})
		if err == nil {
			for i, rep := range preps {
				for j, res := range rep.Results {
					if w := in.want[b][i][j]; int(res.ID) != w.id || res.Score != w.score {
						err = fmt.Errorf("batch %d query %d rank %d: pipeline (%d, %d), reference (%d, %d)", b, i, j, res.ID, res.Score, w.id, w.score)
					}
				}
			}
		}
		r.op(err)
		t.close(root)
	}
	sum1, count1 := laneFill(db)
	lp.laneFillSum += sum1 - sum0
	lp.laneFillCount += count1 - count0

	// Full packs at the default lane width: one query against 64 entries
	// of its own length.
	g := newSeqRand(r.seed, 5)
	q := g.random(dnaAlphabet, scanQueryLen)
	arr, err := race.NewArray(scanQueryLen, scanQueryLen)
	if err != nil {
		return err
	}
	arr.SetBackend(race.BackendLanes)
	pack := make([]string, arr.LaneWidth())
	for i := range pack {
		pack[i] = g.random(dnaAlphabet, scanQueryLen)
	}
	if _, err := arr.AlignLanes(q, pack, -1); err != nil {
		return err
	}
	lib := tech.AMIS()
	for k := 0; k < tracedPackRepeats; k++ {
		root := t.newReq("scan.pack")
		var res []*race.AlignResult
		t0 := time.Now()
		t.do("race.pack", root, func() { res, err = arr.AlignLanes(q, pack, -1) })
		el := time.Since(t0)
		if err != nil {
			return err
		}
		longest := 0
		for i, rs := range res {
			if want := dnaRef(q, pack[i]); int64(rs.Score) != want {
				err = fmt.Errorf("lane %d scored %d, reference %d", i, rs.Score, want)
			}
			longest = max(longest, rs.Cycles)
			t.do("tech.price", root, func() {
				_ = lib.Energy(rs.Activity)
				_ = lib.Power(rs.Activity)
			})
		}
		r.op(err)
		lp.nsPerCycle[race.BackendLanes] = append(lp.nsPerCycle[race.BackendLanes], float64(el)/float64(longest))
		t.close(root)
	}
	runtime.KeepAlive(db)
	return nil
}

// laneFill reads the lane-fill histogram's running sum and count from
// the database's metric registry.
func laneFill(db *racelogic.Database) (sum, count float64) {
	var buf bytes.Buffer
	db.Metrics().WritePrometheus(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "racelogic_lane_fill_ratio_sum"):
			sum += v
		case strings.HasPrefix(name, "racelogic_lane_fill_ratio_count"):
			count += v
		}
	}
	return sum, count
}

// ingestPass runs one ingest round with spans around the facade calls,
// then drives the index and store layers directly with the same
// batches.
func (lp *layerProbes) ingestPass(in *ingestInputs, dir string) error {
	t, r := lp.t, lp.r
	t.pass = "ingest_durable"
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var rt ingestTimes
	if _, err := ingestRound(r, in, dir, &rt, func() {}, t); err != nil {
		return err
	}

	// The index and store layers on their own, at shard size.
	parts, ids := shardParts(in.base)
	ix, err := index.New(parts[0], ingestK)
	if err != nil {
		return err
	}
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return err
	}
	j, _, err := store.OpenJournal(jdir, "probe", 0)
	if err != nil {
		return err
	}
	entries := append([]string(nil), parts[0]...)
	allIDs := append([]uint64(nil), ids[0]...)
	next := uint64(len(in.base))
	version := int64(0)
	root := t.newReq("ingest.layers")
	for _, st := range in.stream {
		if st.insert == nil {
			continue
		}
		batchIDs := make([]uint64, len(st.insert))
		for i := range batchIDs {
			batchIDs[i] = next
			next++
		}
		version++
		t.do("index.grow", root, func() { ix = ix.Grow(st.insert) })
		t.do("store.append", root, func() { _, err = j.AppendInsert(version, version, batchIDs, st.insert) })
		if err != nil {
			return err
		}
		entries = append(entries, st.insert...)
		allIDs = append(allIDs, batchIDs...)
		lp.walEnt += int64(len(st.insert))
	}
	lp.walBytes += j.Size()
	if err := j.Close(); err != nil {
		return err
	}
	var recs []store.Record
	t.do("store.replay", root, func() {
		var j2 *store.Journal
		j2, recs, err = store.OpenJournal(jdir, "probe", 0)
		if err == nil {
			err = j2.Close()
		}
	})
	if err == nil && int64(len(recs)) != version {
		err = fmt.Errorf("journal replayed %d records, %d appended", len(recs), version)
	}
	r.op(err)
	if ix.Len() != len(entries) {
		r.op(fmt.Errorf("grown index covers %d entries, want %d", ix.Len(), len(entries)))
	}
	snap := &store.Snapshot{
		Options:    store.Options{Library: "AMIS", SeedK: ingestK, Threshold: -1},
		ShardCount: 1, Version: version, GlobalVersion: version, NextID: next,
		IDs: allIDs, Entries: entries, Index: ix,
	}
	path := filepath.Join(dir, "probe.snap")
	t.do("store.snapshot_write", root, func() { err = store.WriteFile(path, snap) })
	if err != nil {
		return err
	}
	var back *store.Snapshot
	t.do("store.snapshot_read", root, func() { back, err = store.ReadFile(path) })
	if err == nil && len(back.Entries) != len(entries) {
		err = fmt.Errorf("snapshot read back %d entries, wrote %d", len(back.Entries), len(entries))
	}
	r.op(err)
	t.close(root)
	return nil
}

// pairPass times the facade round untraced and traced (the tracing
// overhead on aligns_per_s), then each array type, backend compile and
// the DAG solver on their own.
func (lp *layerProbes) pairPass(in *pairInputs) error {
	t, r := lp.t, lp.r
	t.pass = "pair_align"
	e, err := newPairEngines()
	if err != nil {
		return err
	}
	calls := float64(len(in.dna)*2 + len(in.prot) + len(in.dags))
	pairRound(r, in, e, nil, nil)
	for k := 0; k < tracedOverheadRounds; k++ {
		var m, mt meter
		pairRound(r, in, e, &m, nil)
		pairRound(r, in, e, &mt, t)
		lp.pairUntraced = append(lp.pairUntraced, calls/m.wall.Seconds())
		lp.pairTraced = append(lp.pairTraced, calls/mt.wall.Seconds())
	}

	root := t.newReq("pair.layers")
	p0, q0 := in.dna[0][0], in.dna[0][1]
	for _, b := range backends {
		for k := 0; k < tracedCompiles; k++ {
			t0 := time.Now()
			a, err := race.NewArray(pairDNALen, pairDNALen)
			if err != nil {
				return err
			}
			a.SetBackend(b)
			if _, err := a.Align(p0, q0); err != nil {
				return err
			}
			first := time.Since(t0)
			var warm []float64
			var res *race.AlignResult
			for w := 0; w < tracedWarmAligns; w++ {
				t1 := time.Now()
				if res, err = a.Align(p0, q0); err != nil {
					return err
				}
				warm = append(warm, float64(time.Since(t1)))
			}
			lp.compile[b] = append(lp.compile[b], ms(first-time.Duration(median(warm))))
			if b != race.BackendLanes {
				lp.nsPerCycle[b] = append(lp.nsPerCycle[b], median(warm)/float64(res.Cycles))
			}
		}
	}

	plain, err := race.NewArray(pairDNALen, pairDNALen)
	if err != nil {
		return err
	}
	gated, err := race.NewGatedArray(pairDNALen, pairDNALen, pairGateRegion)
	if err != nil {
		return err
	}
	prepared, err := score.BLOSUM62().PrepareForRace()
	if err != nil {
		return err
	}
	general, err := race.NewGeneralArray(pairProtLen, pairProtLen, prepared, race.BinaryCounter)
	if err != nil {
		return err
	}
	// Untraced first calls compile the simulators.
	_, _ = plain.Align(p0, q0)
	_, _ = gated.Align(p0, q0)
	_, _ = general.Align(in.prot[0][0], in.prot[0][1])
	dnaMatrix := score.DNAShortestInf()
	for i, pq := range in.dna {
		var res *race.AlignResult
		t.do("race.align.plain", root, func() { res, err = plain.Align(pq[0], pq[1]) })
		if err == nil && int64(res.Score) != in.dnaWant[i] {
			err = fmt.Errorf("plain array scored %d, reference %d", res.Score, in.dnaWant[i])
		}
		r.op(err)
		if err != nil {
			continue
		}
		t.do("race.traceback", root, func() { _, err = res.Traceback(pq[0], pq[1], dnaMatrix) })
		r.op(err)
		var gres *race.AlignResult
		t.do("race.align.gated", root, func() { gres, err = gated.Align(pq[0], pq[1]) })
		if err == nil && int64(gres.Score) != in.dnaWant[i] {
			err = fmt.Errorf("gated array scored %d, reference %d", gres.Score, in.dnaWant[i])
		}
		r.op(err)
	}
	for i, pq := range in.prot {
		var res *race.AlignResult
		t.do("race.align.general", root, func() { res, err = general.Align(pq[0], pq[1]) })
		if err == nil && int64(res.Score) != in.protWant[i] {
			err = fmt.Errorf("general array scored %d, reference %d", res.Score, in.protWant[i])
		}
		r.op(err)
	}
	for _, d := range in.dags {
		g := dag.New()
		for v := 0; v < d.nodes; v++ {
			g.AddNode(strconv.Itoa(v))
		}
		for _, ed := range d.edges {
			if err := g.AddEdge(dag.NodeID(ed.from), dag.NodeID(ed.to), temporal.Time(ed.w)); err != nil {
				return err
			}
		}
		solver, err := race.FromDAG(g, race.ORType)
		if err != nil {
			return err
		}
		var res *race.Result
		dst := dag.NodeID(d.nodes - 1)
		t.do("race.solve.dag", root, func() { res, err = solver.Solve(dst) })
		if err == nil && int64(res.Arrival[dst]) != d.want {
			err = fmt.Errorf("DAG solver reached the sink at %d, reference %d", res.Arrival[dst], d.want)
		}
		r.op(err)
	}
	t.close(root)
	return nil
}

// report turns the spans and counts into the per-layer metrics, the
// attribution gaps and the tracing overhead.  Each layer metric is the
// median duration of its spans.
func (lp *layerProbes) report() {
	r, t := lp.r, lp.t
	med := func(pass, name string, unit time.Duration) float64 {
		return medianIn(t.durations(pass, name), unit)
	}
	const (
		seeded = "seeded_lookup"
		scan   = "scan_batch"
		ingest = "ingest_durable"
		pair   = "pair_align"
	)
	us, msec, sec := time.Microsecond, time.Millisecond, time.Second

	r.set("server.request_ms", med(seeded, "server.request", msec), "ms")
	r.set("server.overhead_ms", median(lp.serverOverhead), "ms")
	r.set("server.cache_hit_ratio", float64(lp.hits)/float64(lp.requests), "ratio")
	r.set("db.new_s", med(seeded, "db.new", sec), "s")
	r.set("db.search_ms", med(seeded, "db.search", msec), "ms")
	r.set("db.search_batch_ms", med(scan, "db.search_batch", msec), "ms")
	r.set("db.insert_ms", med(ingest, "db.insert", msec), "ms")
	r.set("db.persist_s", med(ingest, "db.persist", sec), "s")
	r.set("db.open_s", med(ingest, "db.open", sec), "s")
	r.set("index.candidates_us", med(seeded, "index.candidates", us), "us")
	r.set("index.candidates_per_query", median(lp.candidates), "count")
	r.set("index.grow_ms", med(ingest, "index.grow", msec), "ms")
	r.set("pipeline.scan_ms", med(seeded, "pipeline.scan", msec), "ms")
	r.set("pipeline.batch_scan_ms", med(scan, "pipeline.batch_scan", msec), "ms")
	r.set("pipeline.lane_fill_ratio", lp.laneFillSum/lp.laneFillCount, "ratio")
	r.set("pipeline.engines_built_warm", float64(lp.enginesWarm), "count")
	r.set("pipeline.overhead_ms", median(lp.pipelineOverhead), "ms")
	r.set("race.align_us.plain", med(pair, "race.align.plain", us), "us")
	r.set("race.align_us.gated", med(pair, "race.align.gated", us), "us")
	r.set("race.align_us.general", med(pair, "race.align.general", us), "us")
	r.set("race.solve_us.dag", med(pair, "race.solve.dag", us), "us")
	r.set("race.traceback_us", med(pair, "race.traceback", us), "us")
	pack := med(scan, "race.pack", us)
	r.set("race.pack_us", pack, "us")
	r.set("race.ns_per_candidate", pack*1000/float64(laneWidthDefault()), "ns")
	for _, b := range backends {
		r.set("circuit.compile_ms."+b.String(), median(lp.compile[b]), "ms")
		r.set("circuit.ns_per_sim_cycle."+b.String(), median(lp.nsPerCycle[b]), "ns")
	}
	r.set("circuit.toggles_per_race", median(lp.toggles), "count")
	r.set("tech.price_us", med(scan, "tech.price", us), "us")
	r.set("store.append_us", med(ingest, "store.append", us), "us")
	r.set("store.wal_bytes_per_entry", float64(lp.walBytes)/float64(lp.walEnt), "B")
	r.set("store.snapshot_write_ms", med(ingest, "store.snapshot_write", msec), "ms")
	r.set("store.snapshot_read_ms", med(ingest, "store.snapshot_read", msec), "ms")
	r.set("store.replay_ms", med(ingest, "store.replay", msec), "ms")

	// Attribution: what a layer spends beyond the layers below it, as
	// the difference between the medians of separate probes of the same
	// queries over the same partition.
	r.set("attr.db_search_gap_ms", med(seeded, "db.search", msec)-med(seeded, "index.candidates", msec)-med(seeded, "pipeline.scan", msec), "ms")
	r.set("attr.db_search_batch_gap_ms", med(scan, "db.search_batch", msec)-med(scan, "pipeline.batch_scan", msec), "ms")
	// Tracing overhead: the traced against the untraced figure, in
	// percent (positive = tracing made it slower).
	r.set("trace.overhead_search_p50_pct", (median(lp.tracedReq)/median(lp.untracedReq)-1)*100, "%")
	r.set("trace.overhead_aligns_per_s_pct", (median(lp.pairUntraced)/median(lp.pairTraced)-1)*100, "%")
}

// laneWidthDefault is the pack capacity of a lanes-backend array at the
// default width.
func laneWidthDefault() int {
	a, err := race.NewArray(1, 1)
	if err != nil {
		return 64
	}
	a.SetBackend(race.BackendLanes)
	return a.LaneWidth()
}
