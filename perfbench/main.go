// Command perfbench drives the race-logic search service from one
// process and one closed-loop client, and prints its end-to-end metrics
// (or, with -trace 1, its per-layer metrics) as one JSON line.
//
//	go build -o perfbench . && ./perfbench --workload seeded_lookup --seed 1 --seconds 10 --trace 0
//
// Every run of a workload performs whole rounds of the same operations,
// generated from the seed, until the run length is spent.  Outputs are
// checked against references the benchmark computes itself (ref.go); a
// failed check counts as a failed operation and makes the command exit
// non-zero.  See README.md for the workloads, metrics and reference
// figures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workDir is the scratch space for durable state and span dumps,
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build/perfbench-work"

// workload runs one workload untraced and records its end-to-end
// metrics into r.
type workload func(r *run) error

var workloads = map[string]workload{
	"seeded_lookup":  runSeededLookup,
	"scan_batch":     runScanBatch,
	"ingest_durable": runIngestDurable,
	"pair_align":     runPairAlign,
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run carries one invocation's settings, operation ledger and metrics.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	workDir  string // scratch space inside the checkout

	attempted, failed int
	firstFailures     []string
	metrics           map[string]metric
}

// op records one attempted operation; err != nil marks it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.firstFailures) < 10 {
			r.firstFailures = append(r.firstFailures, err.Error())
		}
	}
}

func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = -1 // never reached on a correct run; keeps the JSON valid
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// expired reports whether the measured loop has used its run length.
func (r *run) expired(start time.Time) bool { return time.Since(start) >= r.seconds }

func main() {
	name := flag.String("workload", "", "workload: seeded_lookup, scan_batch, ingest_durable or pair_align")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "run length of the measured loop")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		workDir:  workDir,
		metrics:  map[string]metric{},
	}
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printHeader(r, *trace)

	var err error
	if *trace == 1 {
		err = runTraced(r)
	} else {
		err = w(r)
	}
	if err != nil {
		// A set-up failure: nothing was measured.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range r.firstFailures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	fmt.Printf("# %s: %d operations attempted, %d failed\n", r.workload, r.attempted, r.failed)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-40s %.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics}
	buf, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(buf))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHeader records the machine, toolchain, revision and inputs beside
// every number the run prints.
func printHeader(r *run, trace int) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", r.workload, r.seed, r.seconds.Seconds(), trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
