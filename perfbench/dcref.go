package main

import (
	"context"
	"fmt"
	"math"

	"parbor/internal/exp"
	"parbor/internal/metrics"
	"parbor/internal/refresh"
	"parbor/internal/sim"
	"parbor/internal/trace"
)

// dcref is the repro-dcref workload: exp.Fig16Ctx, the call
// `paperrepro -exp fig16` makes.
type dcref struct {
	cfg   config
	opts  exp.Fig16Options
	mixes [][]trace.App

	rows []exp.Fig16Row
	sums []exp.Fig16Summary
}

func newDCRef(cfg config) *dcref { return &dcref{cfg: cfg} }

func (w *dcref) setup(*tracer) error {
	o := exp.Fig16Options{
		Workloads: 4,
		Cores:     8,
		SimNs:     5e5,
		Densities: []sim.Density{sim.Density16Gbit, sim.Density32Gbit},
	}
	if w.cfg.scale == "small" {
		o.Workloads, o.Cores, o.SimNs = 1, 2, 1e5
	}
	o.Seed = mixSeed(w.cfg.seed, o.Workloads, o.Cores)
	w.opts = o
	// The mixes Fig16Ctx derives from the seed; the traced run replays
	// the grid over them.
	w.mixes = trace.Workloads(o.Workloads, o.Cores, o.Seed)
	return nil
}

// mixSeed derives the Fig16Ctx seed from the benchmark seed: of the
// first mixCandidates seeds derived from it, the one whose mixes sum
// nearest to the SPEC2006 catalogue's mean MPKI per core. The
// simulated requests, and with them the simulated work, follow the
// mixes' MPKI: this keeps the work of one benchmark seed near that of
// another, so the spread of a metric over seeds measures the program
// and the host, not the draw. The search costs the same for every
// seed, and it is part of the set-up.
func mixSeed(seed uint64, mixes, cores int) uint64 {
	apps := trace.SPEC2006()
	var want float64
	for _, a := range apps {
		want += a.MPKI
	}
	want *= float64(mixes*cores) / float64(len(apps))
	best, bestOff := uint64(0), math.Inf(1)
	for i := 0; i < mixCandidates; i++ {
		s := subSeed(seed, "dcref", i)
		var sum float64
		for _, mix := range trace.Workloads(mixes, cores, s) {
			for _, a := range mix {
				sum += a.MPKI
			}
		}
		if off := math.Abs(sum - want); off < bestOff {
			best, bestOff = s, off
		}
	}
	return best
}

const mixCandidates = 64

func (w *dcref) run(ctx context.Context) error {
	rows, sums, err := exp.Fig16Ctx(ctx, w.opts)
	w.rows, w.sums = rows, sums
	return err
}

func (w *dcref) query() error {
	sums := exp.Summarize(w.rows)
	if len(exp.FormatFig16(w.rows, sums)) == 0 {
		return fmt.Errorf("repro-dcref: empty figure")
	}
	return nil
}

func (w *dcref) close() error { return nil }

func (w *dcref) check(c *checker) {
	checkFig16(c, w.opts, w.rows, w.sums)
}

// checkFig16 checks and records the figure's rows and summaries.
func checkFig16(c *checker, o exp.Fig16Options, rows []exp.Fig16Row, sums []exp.Fig16Summary) {
	c.expect(len(rows) == len(o.Densities)*o.Workloads, "fig16: %d rows, want %d", len(rows), len(o.Densities)*o.Workloads)
	for _, r := range rows {
		key := fmt.Sprintf("row.%s.%d.", r.Density, r.Workload)
		finite := func(x float64) bool { return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }
		c.expect(finite(r.WSBase) && finite(r.WSRAIDR) && finite(r.WSDCREF),
			"fig16 %s: weighted speedups %v %v %v", key, r.WSBase, r.WSRAIDR, r.WSDCREF)
		c.expect(r.RefDCREF < r.RefRAIDR && r.RefRAIDR < r.RefBase,
			"fig16 %s: refreshes dcref %d raidr %d base %d not strictly ordered", key, r.RefDCREF, r.RefRAIDR, r.RefBase)
		c.outputInt(key+"ref_base", r.RefBase)
		c.outputInt(key+"ref_raidr", r.RefRAIDR)
		c.outputInt(key+"ref_dcref", r.RefDCREF)
		c.outputFloat(key+"ws_base", r.WSBase, 9)
		c.outputFloat(key+"ws_raidr", r.WSRAIDR, 9)
		c.outputFloat(key+"ws_dcref", r.WSDCREF, 9)
		c.outputFloat(key+"fast_frac", r.DCREFFastFrac, 9)
	}
	again := exp.Summarize(rows)
	c.expect(fmt.Sprint(again) == fmt.Sprint(sums), "fig16: summaries do not re-derive from the rows")
	for _, s := range sums {
		key := fmt.Sprintf("summary.%s.", s.Density)
		c.outputFloat(key+"dcref_vs_base", s.DCREFvsBase, 6)
		c.outputFloat(key+"raidr_vs_base", s.RAIDRvsBase, 6)
		c.outputFloat(key+"dcref_vs_raidr", s.DCREFvsRAIDR, 6)
		c.outputFloat(key+"ref_reduction_vs_base", s.RefReductionVsBase, 6)
		c.outputFloat(key+"ref_reduction_vs_raidr", s.RefReductionVsRAIDR, 6)
		c.outputFloat(key+"fast_frac", s.DCREFFastFrac, 6)
		c.outputFloat(key+"energy_saving", s.EnergySaving, 6)
		c.info["exp.fig16_dcref_vs_base_pct."+s.Density.String()] = s.DCREFvsBase
	}
}

// traced replays Fig16Ctx's grid one sim.Run call at a time: every
// single-app baseline, then one call per (density, mix, policy).
func (w *dcref) traced(ctx context.Context, tr *tracer, c *checker) (map[string]float64, error) {
	if err := w.setup(tr); err != nil {
		return nil, err
	}
	o := w.opts
	var requests, instructions int64
	refreshes := map[refresh.Kind]int64{}
	spanOf := map[refresh.Kind]string{refresh.Uniform: "sim.run.base", refresh.RAIDR: "sim.run.raidr", refresh.DCREF: "sim.run.dcref"}
	call := func(name string, cfg sim.Config) (*sim.Result, error) {
		var res *sim.Result
		err := tr.do(name, func() (err error) {
			res, err = sim.Run(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		requests += res.Requests
		instructions += res.Instructions
		return res, nil
	}

	root := tr.begin("exp.fig16")
	type aloneKey struct {
		app     string
		density sim.Density
	}
	alone := map[aloneKey]float64{}
	for _, d := range o.Densities {
		for _, mix := range w.mixes {
			for _, app := range mix {
				key := aloneKey{app.Name, d}
				if _, ok := alone[key]; ok {
					continue
				}
				res, err := call("sim.alone", sim.Config{
					Workload: []trace.App{app}, Policy: refresh.Uniform, Density: d, SimNs: o.SimNs, Seed: o.Seed,
				})
				if err != nil {
					return nil, err
				}
				alone[key] = res.IPC[0]
			}
		}
	}
	var rows []exp.Fig16Row
	for _, d := range o.Densities {
		for m, mix := range w.mixes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			aloneIPCs := make([]float64, len(mix))
			for i, app := range mix {
				aloneIPCs[i] = alone[aloneKey{app.Name, d}]
			}
			row := exp.Fig16Row{Workload: m, Density: d}
			for _, k := range refresh.Kinds() {
				res, err := call(spanOf[k], sim.Config{
					Workload: mix, Policy: k, Density: d, SimNs: o.SimNs, Seed: o.Seed + uint64(m),
				})
				if err != nil {
					return nil, err
				}
				ws, err := metrics.WeightedSpeedup(res.IPC, aloneIPCs)
				if err != nil {
					return nil, err
				}
				refreshes[k] += res.Refreshes
				switch k {
				case refresh.Uniform:
					row.WSBase, row.RefBase = ws, res.Refreshes
					row.EPIBase = res.Energy.Total() / float64(res.Instructions)
				case refresh.RAIDR:
					row.WSRAIDR, row.RefRAIDR = ws, res.Refreshes
				case refresh.DCREF:
					row.WSDCREF, row.RefDCREF = ws, res.Refreshes
					row.DCREFFastFrac = res.FastRowFrac
					row.EPIDCREF = res.Energy.Total() / float64(res.Instructions)
				}
			}
			rows = append(rows, row)
		}
	}
	tr.end(root)
	checkFig16(c, o, rows, exp.Summarize(rows))

	runS := tr.seconds("sim.alone", "sim.run.base", "sim.run.raidr", "sim.run.dcref")
	return map[string]float64{
		"wall_s":                             tr.seconds("exp.fig16"),
		"sim.run_s":                          runS,
		"sim.alone_s":                        tr.seconds("sim.alone"),
		"sim.run_s.base":                     tr.seconds("sim.run.base"),
		"sim.run_s.raidr":                    tr.seconds("sim.run.raidr"),
		"sim.run_s.dcref":                    tr.seconds("sim.run.dcref"),
		"sim.host_ns_per_req":                runS * 1e9 / float64(requests),
		"sim.requests":                       float64(requests),
		"sim.instructions":                   float64(instructions),
		"sim.refreshes.base":                 float64(refreshes[refresh.Uniform]),
		"sim.refreshes.raidr":                float64(refreshes[refresh.RAIDR]),
		"sim.refreshes.dcref":                float64(refreshes[refresh.DCREF]),
		"exp.fig16_dcref_vs_base_pct.16Gbit": c.info["exp.fig16_dcref_vs_base_pct.16Gbit"],
		"exp.fig16_dcref_vs_base_pct.32Gbit": c.info["exp.fig16_dcref_vs_base_pct.32Gbit"],
	}, nil
}
