package main

import (
	"context"
	"fmt"

	"parbor/internal/core"
	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/scramble"
)

// detect is the repro-detect workload: the Fig 12 protocol driven
// through core on modules built the way internal/exp builds them.
// PARBOR (RunCtx) runs on each module, then the equal-budget random
// test on an identical twin.
type detect struct {
	cfg  config
	mods []*detectModule
	rec  *obs.Collector // traced runs only
}

// detectModule is one module under test and its twin.
type detectModule struct {
	name         string
	host, twin   *memctl.Host
	parbor, rand *core.Tester

	rep    *core.Report
	random core.FailureSet
}

func newDetect(cfg config) *detect { return &detect{cfg: cfg} }

// detectConfigs generates the module configs from the seed: the
// internal/exp Fig 12 module shape (8 chips of 8K columns, the dense
// experiment victim population, default fault models) at 128 rows, so
// that a run's ~2 s processes give it a dozen samples or more.
func detectConfigs(cfg config) []dram.ModuleConfig {
	perVendor, chips, rows := 2, 8, 128
	if cfg.scale == "small" {
		perVendor, chips, rows = 1, 2, 128
	}
	cpl := coupling.DefaultConfig()
	cpl.VulnerableRate = 2e-3
	var out []dram.ModuleConfig
	for _, v := range scramble.Vendors() {
		for i := 0; i < perVendor; i++ {
			out = append(out, dram.ModuleConfig{
				Name:     fmt.Sprintf("%s%d", v, i+1),
				Vendor:   v,
				Chips:    chips,
				Geometry: dram.Geometry{Banks: 1, Rows: rows, Cols: 8192},
				Coupling: cpl,
				Faults:   faults.DefaultConfig(),
				Seed:     subSeed(cfg.seed, "detect", len(out)),
			})
		}
	}
	return out
}

// newTester builds one module, its host and its tester.
func newTester(conf dram.ModuleConfig, rec *obs.Collector, tr *tracer) (*memctl.Host, *core.Tester, error) {
	if rec != nil {
		conf.Recorder = rec
	}
	var mod *dram.Module
	build := func() (err error) {
		mod, err = dram.NewModule(conf)
		return err
	}
	var err error
	if tr != nil {
		err = tr.do("dram.build", build)
	} else {
		err = build()
	}
	if err != nil {
		return nil, nil, err
	}
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{})
	if err != nil {
		return nil, nil, err
	}
	t, err := core.New(host, core.Config{Seed: conf.Seed})
	return host, t, err
}

func (w *detect) setup(tr *tracer) error {
	w.mods = nil
	if tr != nil {
		w.rec = obs.NewCollector()
	}
	for _, conf := range detectConfigs(w.cfg) {
		m := &detectModule{name: conf.Name}
		var err error
		if m.host, m.parbor, err = newTester(conf, w.rec, tr); err != nil {
			return err
		}
		if m.twin, m.rand, err = newTester(conf, w.rec, tr); err != nil {
			return err
		}
		w.mods = append(w.mods, m)
	}
	return nil
}

func (w *detect) run(ctx context.Context) error {
	for _, m := range w.mods {
		rep, err := m.parbor.RunCtx(ctx)
		if err != nil {
			return fmt.Errorf("repro-detect: module %s: %w", m.name, err)
		}
		random, err := m.rand.RandomPatternTestCtx(ctx, rep.TotalTests())
		if err != nil {
			return fmt.Errorf("repro-detect: module %s: %w", m.name, err)
		}
		m.rep, m.random = rep, random
	}
	return nil
}

// query is the user read of the finished test: the Fig 12 row and the
// checksums of every failure set.
func (w *detect) query() error {
	for _, m := range w.mods {
		row := m.fig12Row()
		if row.Budget == 0 {
			return fmt.Errorf("repro-detect: module %s: empty budget", m.name)
		}
		for _, s := range []core.FailureSet{m.rep.AllFailures, m.rep.FullChipFailures, m.rep.Neighbor.DiscoveryFailures, m.random} {
			s.Checksum()
		}
	}
	return nil
}

func (w *detect) close() error { return nil }

// fig12Row derives the module's Figure 12 row exactly as internal/exp
// does.
func (m *detectModule) fig12Row() fig12Row {
	all := m.rep.AllFailures
	newFailures := len(all) - all.Intersect(m.random)
	pct := 0.0
	if len(m.random) > 0 {
		pct = 100 * float64(newFailures) / float64(len(m.random))
	}
	return fig12Row{
		Budget:      m.rep.TotalTests(),
		Parbor:      len(all),
		Random:      len(m.random),
		NewFailures: newFailures,
		PctIncrease: pct,
	}
}

type fig12Row struct {
	Budget, Parbor, Random, NewFailures int
	PctIncrease                         float64
}

func (w *detect) check(c *checker) {
	var pct float64
	for _, m := range w.mods {
		row := m.fig12Row()
		rep := m.rep
		key := "module." + m.name + "."
		union := make(core.FailureSet)
		union.Union(rep.Neighbor.DiscoveryFailures)
		union.Union(rep.FullChipFailures)
		c.expect(union.Checksum() == rep.AllFailures.Checksum(), "%s: AllFailures is not discovery ∪ full-chip", m.name)
		c.expect(m.host.Passes() == row.Budget, "%s: PARBOR host ran %d passes, budget %d", m.name, m.host.Passes(), row.Budget)
		c.expect(m.twin.Passes() == row.Budget, "%s: random host ran %d passes, budget %d", m.name, m.twin.Passes(), row.Budget)
		c.expect(row.Parbor > 0 && row.NewFailures >= 0 && row.NewFailures <= row.Parbor,
			"%s: parbor %d, new %d", m.name, row.Parbor, row.NewFailures)
		c.outputInt(key+"budget", int64(row.Budget))
		c.outputInt(key+"parbor", int64(row.Parbor))
		c.outputInt(key+"random", int64(row.Random))
		c.outputInt(key+"new_failures", int64(row.NewFailures))
		c.output(key+"distances", fmt.Sprint(rep.Neighbor.Distances))
		c.output(key+"checksum.all", rep.AllFailures.Checksum())
		c.output(key+"checksum.fullchip", rep.FullChipFailures.Checksum())
		c.output(key+"checksum.discovery", rep.Neighbor.DiscoveryFailures.Checksum())
		c.output(key+"checksum.random", m.random.Checksum())
		pct += row.PctIncrease
	}
	c.info["exp.fig12_pct_increase"] = pct / float64(len(w.mods))
}

// traced runs the same protocol one layer call at a time: recursive
// neighbor detection, the full-chip test and the random test each
// under their own span, with an obs.Collector counting DRAM commands.
func (w *detect) traced(ctx context.Context, tr *tracer, c *checker) (map[string]float64, error) {
	if err := w.setup(tr); err != nil {
		return nil, err
	}
	root := tr.begin("exp.fig12")
	for _, m := range w.mods {
		var nr *core.NeighborResult
		if err := tr.do("core.detect", func() (err error) {
			nr, err = m.parbor.DetectNeighborsCtx(ctx)
			return err
		}); err != nil {
			return nil, fmt.Errorf("repro-detect: module %s: %w", m.name, err)
		}
		var fails core.FailureSet
		var tests int
		if err := tr.do("core.fullchip", func() (err error) {
			fails, tests, err = m.parbor.FullChipTestCtx(ctx, nr.Distances)
			return err
		}); err != nil {
			return nil, fmt.Errorf("repro-detect: module %s: %w", m.name, err)
		}
		all := make(core.FailureSet, len(fails)+len(nr.DiscoveryFailures))
		all.Union(nr.DiscoveryFailures)
		all.Union(fails)
		m.rep = &core.Report{Neighbor: *nr, FullChipTests: tests, FullChipFailures: fails, AllFailures: all}
		if err := tr.do("core.random", func() (err error) {
			m.random, err = m.rand.RandomPatternTestCtx(ctx, m.rep.TotalTests())
			return err
		}); err != nil {
			return nil, fmt.Errorf("repro-detect: module %s: %w", m.name, err)
		}
	}
	tr.end(root)
	w.check(c)

	var passes, tests, failures, random int
	for _, m := range w.mods {
		passes += m.host.Passes() + m.twin.Passes()
		tests += m.rep.TotalTests()
		failures += len(m.rep.AllFailures)
		random += len(m.random)
	}
	testS := tr.seconds("core.detect", "core.fullchip", "core.random")
	// dram.build_s is one set-up's module construction, as setup_s is.
	return map[string]float64{
		"wall_s":                 tr.seconds("exp.fig12"),
		"dram.build_s":           tr.seconds("dram.build"),
		"core.detect_s":          tr.seconds("core.detect"),
		"core.fullchip_s":        tr.seconds("core.fullchip"),
		"core.random_s":          tr.seconds("core.random"),
		"memctl.us_per_pass":     testS * 1e6 / float64(passes),
		"memctl.passes":          float64(passes),
		"core.tests":             float64(tests),
		"core.failures":          float64(failures),
		"core.random_failures":   float64(random),
		"dram.reads":             float64(w.rec.CommandCount(obs.CmdRead)),
		"dram.writes":            float64(w.rec.CommandCount(obs.CmdWrite)),
		"exp.fig12_pct_increase": c.info["exp.fig12_pct_increase"],
	}, nil
}
