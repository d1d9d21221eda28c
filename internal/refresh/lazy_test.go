package refresh

import (
	"testing"

	"parbor/internal/bloom"
	"parbor/internal/rng"
)

// TestCachedChildDrawsMatchSplitN pins the per-row draws to the
// uncached SplitN form they replaced, for a spread of rows (including
// ones past any realistic rank) and seeds: the cached Child("weak"),
// Child("match0") and Child("write") streams must produce the very
// same bits, or every DC-REF and RAIDR number moves.
func TestCachedChildDrawsMatchSplitN(t *testing.T) {
	rows := []int64{0, 1, 2, 63, 64, 1000, 1 << 20, 1<<21 - 1, 1<<40 + 7}
	for _, seed := range []uint64{0, 1, 7, 0x9e37, 1<<63 + 5} {
		p, err := New(Config{Kind: DCREF, TotalRows: 16, WeakRowFrac: 0.5, InitialMatchProb: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(seed)
		for _, row := range rows {
			if got, want := p.isWeakDraw(row), src.SplitN("weak", uint64(row)).Float64() < 0.5; got != want {
				t.Errorf("seed %d row %d: isWeakDraw = %v, SplitN(\"weak\") says %v", seed, row, got, want)
			}
			if got, want := p.initialMatch(row), src.SplitN("match0", uint64(row)).Float64() < 0.5; got != want {
				t.Errorf("seed %d row %d: initialMatch = %v, SplitN(\"match0\") says %v", seed, row, got, want)
			}
			for _, c := range []struct {
				cached rng.Source
				label  string
			}{{p.weakSrc, "weak"}, {p.match0Src, "match0"}, {p.writeSrc, "write"}} {
				got := c.cached.At(uint64(row))
				if g, w := got.Uint64(), src.SplitN(c.label, uint64(row)).Uint64(); g != w {
					t.Errorf("seed %d row %d: cached %q child draws %#x, SplitN draws %#x", seed, row, c.label, g, w)
				}
			}
			w := p.writeSrc.At(uint64(row))
			for _, seq := range []uint64{1, 2, 1 << 33} {
				got := w.ChildN("seq", seq)
				if g, w := got.Uint64(), src.SplitN("write", uint64(row)).SplitN("seq", seq).Uint64(); g != w {
					t.Errorf("seed %d row %d seq %d: write draw %#x, SplitN chain %#x", seed, row, seq, g, w)
				}
			}
		}
	}
}

// eagerFilter builds the weak-row filter independently of the policy's
// lazy path: sized by NewWithEstimate, filled in one scan of the rows.
func eagerFilter(t *testing.T, p *Policy) *bloom.Filter {
	t.Helper()
	expected := uint64(float64(p.cfg.TotalRows)*p.cfg.WeakRowFrac) + 1
	f, err := bloom.NewWithEstimate(expected, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for row := int64(0); row < p.cfg.TotalRows; row++ {
		if p.isWeakDraw(row) {
			f.Add(uint64(row))
		}
	}
	return f
}

// TestLazyFilterMatchesEager checks that the filter built on the first
// IsWeak call answers exactly as an eagerly built one over every row of
// a small policy, false positives included, and that New builds none.
func TestLazyFilterMatchesEager(t *testing.T) {
	for _, kind := range []Kind{RAIDR, DCREF} {
		for _, seed := range []uint64{3, 11} {
			// A dense weak fraction, queried over twice TotalRows, so
			// the comparison covers false positives.
			p, err := New(Config{Kind: kind, TotalRows: 6000, WeakRowFrac: 0.3, InitialMatchProb: 0.2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if p.weak != nil {
				t.Fatalf("%v seed %d: New built the weak-row filter", kind, seed)
			}
			eager := eagerFilter(t, p)
			weakRows := p.WeakRows()
			falsePos := 0
			// Query beyond TotalRows too: the filter answers for any key.
			for row := int64(0); row < 2*p.TotalRows(); row++ {
				got, want := p.IsWeak(row), eager.Contains(uint64(row))
				if got != want {
					t.Fatalf("%v seed %d row %d: lazy IsWeak = %v, eager filter says %v", kind, seed, row, got, want)
				}
				if got && (row >= p.TotalRows() || !p.isWeakDraw(row)) {
					falsePos++
				}
			}
			if p.weak.Count() != eager.Count() || p.weak.SizeBytes() != eager.SizeBytes() {
				t.Errorf("%v seed %d: lazy filter holds %d keys in %d B, eager %d in %d B",
					kind, seed, p.weak.Count(), p.weak.SizeBytes(), eager.Count(), eager.SizeBytes())
			}
			if int64(p.weak.Count()) != weakRows || p.WeakRows() != weakRows {
				t.Errorf("%v seed %d: filter holds %d keys, WeakRows %d", kind, seed, p.weak.Count(), weakRows)
			}
			if falsePos == 0 {
				t.Errorf("%v seed %d: no false positives over %d queries; the comparison does not cover them", kind, seed, 2*p.TotalRows())
			}
		}
	}
	if p := newPolicy(t, Uniform, 1000); p.IsWeak(5) || p.weak != nil {
		t.Error("Uniform policy classified a row weak or built a filter")
	}
}

// TestNewRejectsBadConfigsWithoutBuilding feeds New configurations
// whose row count would take minutes to scan: each invalid one must be
// rejected before the scan, so the test finishes at once.
func TestNewRejectsBadConfigsWithoutBuilding(t *testing.T) {
	const huge = 1 << 40
	bad := []Config{
		{Kind: RAIDR, TotalRows: huge, WeakRowFrac: 1.5},
		{Kind: DCREF, TotalRows: huge, WeakRowFrac: 0.1, InitialMatchProb: -0.1},
		{Kind: Kind(0), TotalRows: huge, WeakRowFrac: 0.1},
		{Kind: DCREF, TotalRows: -huge, WeakRowFrac: 0.1},
	}
	for i, cfg := range bad {
		if p, err := New(cfg); err == nil || p != nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
