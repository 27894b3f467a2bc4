package experiment

import "testing"

// TestSweepParallelMatchesSequential is the harness's core promise: a
// sweep's rendered tables are byte-identical no matter how many points run
// concurrently, because every point is an independent simulation and
// results commit in point order. It compares a two-size Figure 7 sweep and
// the Table 1 environment grid at Par=1 and Par=4.
func TestSweepParallelMatchesSequential(t *testing.T) {
	base := options(8, 4, 3, 60, 90)

	seqO, parO := base, base
	seqO.Par = 1
	parO.Par = 4

	seq7, err := RunFigure7(seqO)
	if err != nil {
		t.Fatal(err)
	}
	par7, err := RunFigure7(parO)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq7.Table().RenderCSV(), par7.Table().RenderCSV(); s != p {
		t.Fatalf("figure 7 tables differ between Par=1 and Par=4:\n--- sequential\n%s\n--- parallel\n%s", s, p)
	}

	seqT, err := RunTable1(seqO)
	if err != nil {
		t.Fatal(err)
	}
	parT, err := RunTable1(parO)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seqT.Table().RenderCSV(), parT.Table().RenderCSV(); s != p {
		t.Fatalf("table 1 differs between Par=1 and Par=4:\n--- sequential\n%s\n--- parallel\n%s", s, p)
	}
}
