package main

import "testing"

func TestDNARefHandCases(t *testing.T) {
	for _, c := range []struct {
		p, q string
		want int64
	}{
		{"ACTGAGA", "GATTCGA", 10}, // the paper's Fig. 4c output cell
		{"ACGT", "ACGT", 4},        // all matches: one diagonal step per symbol
		{"A", "C", 2},              // no match: one insertion, one deletion
		{"AAAA", "TTTT", 8},
		{"ACGT", "AGT", 4}, // LCS "AGT"
		{"GATTACA", "TACA", 7},
	} {
		if got := dnaRef(c.p, c.q); got != c.want {
			t.Errorf("dnaRef(%q, %q) = %d, want %d", c.p, c.q, got, c.want)
		}
	}
}

func TestMinPlusRefHandCase(t *testing.T) {
	// A two-symbol table worked by hand: the diagonal mismatch costs 3
	// and a gap 2, so AB against BA is cheapest as gap, match, gap.
	tab := minPlusTable{alphabet: "AB", sub: [][]int64{{0, 3}, {3, 0}}, gap: 2}
	for _, c := range []struct {
		p, q string
		want int64
	}{
		{"AB", "BA", 4},
		{"AB", "AB", 0},
		{"A", "B", 3},
		{"AA", "B", 5},
	} {
		got, err := minPlusRef(c.p, c.q, tab)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("minPlusRef(%q, %q) = %d, want %d", c.p, c.q, got, c.want)
		}
	}
	// An absent diagonal edge forces the gap path.
	tab.sub[0][1], tab.sub[1][0] = never, never
	if got, _ := minPlusRef("A", "B", tab); got != 4 {
		t.Errorf("with mismatch absent: got %d, want 4", got)
	}
	if _, err := minPlusRef("AC", "AB", tab); err == nil {
		t.Error("symbol outside the alphabet accepted")
	}
}

func TestMinPlusRefMatchesDNARef(t *testing.T) {
	// Under match 1 / indel 1 / mismatch never the min-plus recurrence
	// and the LCS form must agree.
	tab := minPlusTable{alphabet: dnaAlphabet, gap: 1}
	for i := 0; i < 4; i++ {
		row := make([]int64, 4)
		for j := range row {
			row[j] = never
		}
		row[i] = 1
		tab.sub = append(tab.sub, row)
	}
	g := newSeqRand(7, 0)
	for k := 0; k < 50; k++ {
		p, q := g.random(dnaAlphabet, 1+g.Intn(12)), g.random(dnaAlphabet, 1+g.Intn(12))
		got, err := minPlusRef(p, q, tab)
		if err != nil {
			t.Fatal(err)
		}
		if want := dnaRef(p, q); got != want {
			t.Fatalf("%q vs %q: min-plus %d, LCS form %d", p, q, got, want)
		}
	}
}

func TestDAGRefHandCase(t *testing.T) {
	// Sources 0 and 1 start at 0.  To node 3 the detour 0→2→3 (2) beats
	// the direct 0→3 (3); to node 4, 3→4 (4) beats 1→4 (9).
	edges := []dagEdge{{0, 2, 1}, {2, 3, 1}, {0, 3, 3}, {3, 4, 2}, {1, 4, 9}}
	for dst, want := range []int64{0, 0, 1, 2, 4} {
		if got := dagRef(5, edges, dst); got != want {
			t.Errorf("dagRef to %d = %d, want %d", dst, got, want)
		}
	}
}

func TestSharesKmer(t *testing.T) {
	if !sharesKmer("AACCGGTT", "TTCCGGAA", 4) {
		t.Error("CCGG shared but not found")
	}
	if sharesKmer("AAAAAAAA", "CCCCCCCC", 3) {
		t.Error("no shared 3-mer but one reported")
	}
	if sharesKmer("AC", "AC", 3) {
		t.Error("strings shorter than k share no k-mer")
	}
}

func TestMutateAppliesEdits(t *testing.T) {
	g := newSeqRand(3, 1)
	s := g.random(dnaAlphabet, 30)
	m := g.mutate(s, 3, 0)
	diff := 0
	for i := range s {
		if s[i] != m[i] {
			diff++
		}
	}
	if diff != 3 {
		t.Errorf("3 substitutions changed %d positions", diff)
	}
	if got := len(g.mutate(s, 0, 1)); got != 31 {
		t.Errorf("one insertion gave length %d, want 31", got)
	}
	if got := len(g.mutate(s, 0, 2)); got != 30 {
		t.Errorf("insertion plus deletion gave length %d, want 30", got)
	}
}

func TestKmerIndexHandCase(t *testing.T) {
	// k = 3: "ACGTA" holds ACG, CGT, GTA; "TTGTA" holds TTG, TGT, GTA;
	// "CCCCC" holds only CCC.
	entries := []string{"ACGTA", "TTGTA", "CCCCC"}
	x := newKmerIndex(3)
	for _, e := range entries {
		x.add(e)
	}
	for _, c := range []struct {
		q    string
		want int
	}{{"GTA", 2}, {"ACGT", 1}, {"AAAA", 0}, {"CCCC", 1}, {"GT", 0}} {
		if got := len(x.candidates(c.q)); got != c.want {
			t.Errorf("candidates(%q) = %d, want %d", c.q, got, c.want)
		}
	}
	x.remove(1)
	if got := x.candidates("GTA"); len(got) != 1 || got[0] != 0 {
		t.Errorf("after removing entry 1, candidates(GTA) = %v, want [0]", got)
	}
	if !coversLengths(entries, []int32{0, 2}, []int{5}) || coversLengths(entries, []int32{0}, []int{5, 6}) {
		t.Error("coversLengths misjudged the entry lengths")
	}
}
