package main

import (
	"fmt"
	"math"
	"math/rand"

	"racelogic/internal/temporal"
)

// The reference computations below are the benchmark's own: they share
// no code with the program under test, so a wrong answer from the
// program cannot also be the expected answer.

// dnaRef is the global alignment score of the paper's Fig. 4 array
// (match 1, indel 1, mismatch never): every path through the edit graph
// takes one step per symbol of each string except that a match consumes
// one of each, so the shortest path is n + m − LCS(p, q).
func dnaRef(p, q string) int64 {
	prev := make([]int, len(q)+1)
	cur := make([]int, len(q)+1)
	for i := 1; i <= len(p); i++ {
		for j := 1; j <= len(q); j++ {
			switch {
			case p[i-1] == q[j-1]:
				cur[j] = prev[j-1] + 1
			case prev[j] >= cur[j-1]:
				cur[j] = prev[j]
			default:
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return int64(len(p) + len(q) - prev[len(q)])
}

// never marks an absent edge in a substitution table, as the program's
// prepared tables do.
const never = int64(temporal.Never)

// minPlusTable is a substitution table over an alphabet with a uniform
// gap weight.
type minPlusTable struct {
	alphabet string
	sub      [][]int64
	gap      int64
}

// minPlusRef is the shortest path through the edit graph of p and q
// under t: the min-plus recurrence the generalized array races.
func minPlusRef(p, q string, t minPlusTable) (int64, error) {
	idx := func(c byte) (int, error) {
		for i := 0; i < len(t.alphabet); i++ {
			if t.alphabet[i] == c {
				return i, nil
			}
		}
		return 0, fmt.Errorf("symbol %q not in %q", c, t.alphabet)
	}
	const inf = int64(math.MaxInt64 / 4)
	d := make([][]int64, len(p)+1)
	for i := range d {
		d[i] = make([]int64, len(q)+1)
	}
	for i := 0; i <= len(p); i++ {
		for j := 0; j <= len(q); j++ {
			if i == 0 && j == 0 {
				continue
			}
			best := inf
			if i > 0 && d[i-1][j]+t.gap < best {
				best = d[i-1][j] + t.gap
			}
			if j > 0 && d[i][j-1]+t.gap < best {
				best = d[i][j-1] + t.gap
			}
			if i > 0 && j > 0 {
				a, err := idx(p[i-1])
				if err != nil {
					return 0, err
				}
				b, err := idx(q[j-1])
				if err != nil {
					return 0, err
				}
				if w := t.sub[a][b]; w != never && d[i-1][j-1]+w < best {
					best = d[i-1][j-1] + w
				}
			}
			d[i][j] = best
		}
	}
	return d[len(p)][len(q)], nil
}

// dagEdge is one weighted edge of a benchmark graph.  Graphs are built
// with edges only from lower to higher node numbers, so node order is a
// topological order.
type dagEdge struct {
	from, to int
	w        int64
}

// dagRef returns the shortest-path weight from the graph's sources
// (nodes without in-edges, which start at 0) to dst, or -1 when dst is
// unreachable.
func dagRef(nodes int, edges []dagEdge, dst int) int64 {
	const unset = int64(-1)
	in := make([][]dagEdge, nodes)
	for _, e := range edges {
		in[e.to] = append(in[e.to], e)
	}
	dist := make([]int64, nodes)
	for v := 0; v < nodes; v++ {
		if len(in[v]) == 0 {
			dist[v] = 0
			continue
		}
		dist[v] = unset
		for _, e := range in[v] {
			if dist[e.from] == unset {
				continue
			}
			if c := dist[e.from] + e.w; dist[v] == unset || c < dist[v] {
				dist[v] = c
			}
		}
	}
	return dist[dst]
}

// seqRand generates the benchmark's inputs; it is seeded per workload
// and per purpose so that changing one input stream leaves the others.
type seqRand struct{ *rand.Rand }

func newSeqRand(seed int64, stream int64) seqRand {
	return seqRand{rand.New(rand.NewSource(seed*1_000_003 + stream))}
}

const dnaAlphabet = "ACGT"

func (g seqRand) random(alphabet string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[g.Intn(len(alphabet))]
	}
	return string(b)
}

// mutate applies exactly subs substitutions at distinct positions and
// indels insertions or deletions (alternating, insertion first), and
// returns the copy with the number of edits applied.
func (g seqRand) mutate(s string, subs, indels int) string {
	b := []byte(s)
	for _, pos := range g.Perm(len(b))[:subs] {
		old := b[pos]
		for b[pos] == old {
			b[pos] = dnaAlphabet[g.Intn(len(dnaAlphabet))]
		}
	}
	for k := 0; k < indels; k++ {
		pos := g.Intn(len(b))
		if k%2 == 0 {
			b = append(b[:pos], append([]byte{dnaAlphabet[g.Intn(4)]}, b[pos:]...)...)
		} else {
			b = append(b[:pos], b[pos+1:]...)
		}
	}
	return string(b)
}

// sharesKmer reports whether a and b have a length-k substring in
// common: the condition under which a k-mer seed index must return b
// as a candidate for query a.
func sharesKmer(a, b string, k int) bool {
	if len(a) < k || len(b) < k {
		return false
	}
	seen := make(map[string]bool, len(a))
	for i := 0; i+k <= len(a); i++ {
		seen[a[i:i+k]] = true
	}
	for i := 0; i+k <= len(b); i++ {
		if seen[b[i:i+k]] {
			return true
		}
	}
	return false
}

// kmerIndex is the benchmark's own seed index: every k-mer to the
// entries holding it, numbered in the order they were added, with a
// live mark per entry.
type kmerIndex struct {
	k     int
	seeds map[string][]int32
	live  []bool
}

func newKmerIndex(k int) *kmerIndex { return &kmerIndex{k: k, seeds: map[string][]int32{}} }

func (x *kmerIndex) add(e string) {
	i := int32(len(x.live))
	x.live = append(x.live, true)
	for j := 0; j+x.k <= len(e); j++ {
		km := e[j : j+x.k]
		if l := x.seeds[km]; len(l) == 0 || l[len(l)-1] != i {
			x.seeds[km] = append(l, i)
		}
	}
}

func (x *kmerIndex) remove(i int) { x.live[i] = false }

// candidates returns the live entries sharing a k-mer with q: the ones
// a seed index must give q.
func (x *kmerIndex) candidates(q string) []int32 {
	var out []int32
	hit := map[int32]bool{}
	for j := 0; j+x.k <= len(q); j++ {
		for _, i := range x.seeds[q[j:j+x.k]] {
			if x.live[i] && !hit[i] {
				hit[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}

// coversLengths reports whether the entries numbered ids have every
// length in lengths, so that a search for them meets every engine shape.
func coversLengths(entries []string, ids []int32, lengths []int) bool {
	seen := map[int]bool{}
	for _, i := range ids {
		seen[len(entries[i])] = true
	}
	for _, l := range lengths {
		if !seen[l] {
			return false
		}
	}
	return true
}
