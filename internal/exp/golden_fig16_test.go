package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"parbor/internal/sim"
)

const goldenFig16Path = "testdata/golden_fig16.json"

// goldenFig16Opts is a CI-sized Figure 16 grid: two mixes of four
// cores at both densities, long enough for every policy to issue
// refreshes and for DC-REF's writes to move rows between intervals.
func goldenFig16Opts() Fig16Options {
	return Fig16Options{
		Workloads: 2,
		Cores:     4,
		SimNs:     2e5,
		Densities: []sim.Density{sim.Density16Gbit, sim.Density32Gbit},
		Seed:      5,
	}
}

// sig9 renders a float to 9 significant digits. The golden stores
// floats this way so a reordering of floating-point sums in the
// metrics layer does not churn the file, while any change to the
// simulated event order (which moves weighted speedups in the third or
// fourth digit) still shows.
func sig9(x float64) string { return strconv.FormatFloat(x, 'g', 9, 64) }

// goldenFig16Row pins one workload cell: refresh counts exactly, the
// derived floats to 9 significant digits.
type goldenFig16Row struct {
	Workload      int    `json:"workload"`
	Density       string `json:"density"`
	RefBase       int64  `json:"ref_base"`
	RefRAIDR      int64  `json:"ref_raidr"`
	RefDCREF      int64  `json:"ref_dcref"`
	WSBase        string `json:"ws_base"`
	WSRAIDR       string `json:"ws_raidr"`
	WSDCREF       string `json:"ws_dcref"`
	EPIBase       string `json:"epi_base"`
	EPIDCREF      string `json:"epi_dcref"`
	DCREFFastFrac string `json:"dcref_fast_frac"`
}

// goldenFig16Summary pins one density's Section 8 aggregates.
type goldenFig16Summary struct {
	Density             string `json:"density"`
	DCREFvsBase         string `json:"dcref_vs_base_pct"`
	RAIDRvsBase         string `json:"raidr_vs_base_pct"`
	DCREFvsRAIDR        string `json:"dcref_vs_raidr_pct"`
	RefReductionVsBase  string `json:"ref_reduction_vs_base_pct"`
	RefReductionVsRAIDR string `json:"ref_reduction_vs_raidr_pct"`
	DCREFFastFrac       string `json:"dcref_fast_frac_pct"`
	EnergySaving        string `json:"energy_saving_pct"`
}

type goldenFig16File struct {
	Schema    string               `json:"schema"`
	Workloads int                  `json:"workloads"`
	Cores     int                  `json:"cores"`
	SimNs     float64              `json:"sim_ns"`
	Seed      uint64               `json:"seed"`
	Rows      []goldenFig16Row     `json:"rows"`
	Summaries []goldenFig16Summary `json:"summaries"`
}

// TestGoldenFig16Regression pins Figure 16 (the DC-REF system
// simulation of Section 8): per-cell refresh counts per policy, the
// weighted speedups, energy per instruction and DC-REF fast-row
// fraction, and the per-density summaries. The simulator's event
// order, FR-FCFS choices and every refresh-policy draw feed these
// numbers, so a change to any of them shows as a diff. Regenerate
// with:
//
//	go test ./internal/exp -run TestGoldenFig16Regression -update
func TestGoldenFig16Regression(t *testing.T) {
	o := goldenFig16Opts()
	rows, summaries, err := Fig16(o)
	if err != nil {
		t.Fatalf("Fig16: %v", err)
	}
	got := goldenFig16File{
		Schema:    "parbor/golden-fig16/v1",
		Workloads: o.Workloads,
		Cores:     o.Cores,
		SimNs:     o.SimNs,
		Seed:      o.Seed,
	}
	for _, r := range rows {
		// The policies' refresh ordering holds whatever the golden
		// says: it guards against regenerating a broken file.
		if !(r.RefDCREF < r.RefRAIDR && r.RefRAIDR < r.RefBase) {
			t.Errorf("workload %d %v: refreshes base %d, RAIDR %d, DC-REF %d, want DC-REF < RAIDR < base",
				r.Workload, r.Density, r.RefBase, r.RefRAIDR, r.RefDCREF)
		}
		got.Rows = append(got.Rows, goldenFig16Row{
			Workload:      r.Workload,
			Density:       r.Density.String(),
			RefBase:       r.RefBase,
			RefRAIDR:      r.RefRAIDR,
			RefDCREF:      r.RefDCREF,
			WSBase:        sig9(r.WSBase),
			WSRAIDR:       sig9(r.WSRAIDR),
			WSDCREF:       sig9(r.WSDCREF),
			EPIBase:       sig9(r.EPIBase),
			EPIDCREF:      sig9(r.EPIDCREF),
			DCREFFastFrac: sig9(r.DCREFFastFrac),
		})
	}
	for _, s := range summaries {
		got.Summaries = append(got.Summaries, goldenFig16Summary{
			Density:             s.Density.String(),
			DCREFvsBase:         sig9(s.DCREFvsBase),
			RAIDRvsBase:         sig9(s.RAIDRvsBase),
			DCREFvsRAIDR:        sig9(s.DCREFvsRAIDR),
			RefReductionVsBase:  sig9(s.RefReductionVsBase),
			RefReductionVsRAIDR: sig9(s.RefReductionVsRAIDR),
			DCREFFastFrac:       sig9(s.DCREFFastFrac),
			EnergySaving:        sig9(s.EnergySaving),
		})
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFig16Path), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(goldenFig16Path, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("wrote %s", goldenFig16Path)
		return
	}

	data, err := os.ReadFile(goldenFig16Path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want goldenFig16File
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if want.Schema != got.Schema {
		t.Fatalf("golden schema %q, want %q", want.Schema, got.Schema)
	}
	if want.Workloads != got.Workloads || want.Cores != got.Cores || want.SimNs != got.SimNs || want.Seed != got.Seed {
		t.Fatalf("golden configuration %d mixes x %d cores, SimNs %g, seed %d does not match the test's %d x %d, %g, %d — regenerate with -update",
			want.Workloads, want.Cores, want.SimNs, want.Seed, got.Workloads, got.Cores, got.SimNs, got.Seed)
	}
	if len(want.Rows) != len(got.Rows) || len(want.Summaries) != len(got.Summaries) {
		t.Fatalf("golden has %d rows / %d summaries, run produced %d / %d",
			len(want.Rows), len(want.Summaries), len(got.Rows), len(got.Summaries))
	}
	for i, w := range want.Rows {
		if g := got.Rows[i]; !reflect.DeepEqual(w, g) {
			t.Errorf("row %d (workload %d, %s) diverges from golden:\n  golden: %+v\n  got:    %+v", i, w.Workload, w.Density, w, g)
		}
	}
	for i, w := range want.Summaries {
		if g := got.Summaries[i]; !reflect.DeepEqual(w, g) {
			t.Errorf("%s summary diverges from golden:\n  golden: %+v\n  got:    %+v", w.Density, w, g)
		}
	}
}
