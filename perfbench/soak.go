package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"parbor/internal/checkpoint"
	"parbor/internal/core"
	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/fleet"
	"parbor/internal/fleetlog"
	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/onlinetest"
	"parbor/internal/scramble"
)

// soak is the fleet-soak workload: a parbord-shaped daemon run to
// idle in-process, then log analytics over the finished log.
type soak struct {
	cfg   config
	specs []fleet.ModuleSpec
	d     *fleet.Daemon
	dir   string // the current set-up's state and log root
	reps  int

	analytics *fleetlog.Rollup
}

// soakSegmentBytes is small so that the log spans many segments.
const soakSegmentBytes = 16 << 10

func newSoak(cfg config) *soak { return &soak{cfg: cfg} }

// soakSpecs generates the enrollment specs from the seed: vendor-A
// modules with the fleet tests' dense fault rates and long histories;
// 12 of them, so that a run's ~2 s processes give it a dozen samples
// or more.
func soakSpecs(cfg config) []fleet.ModuleSpec {
	modules, rows, cols, epochs := 12, 64, 1024, 48
	if cfg.scale == "small" {
		modules, rows, cols, epochs = 4, 16, 256, 8
	}
	m := scramble.MustNew(scramble.VendorA)
	specs := make([]fleet.ModuleSpec, modules)
	for i := range specs {
		specs[i] = fleet.ModuleSpec{
			ID:     fmt.Sprintf("a%03d", i),
			Vendor: "A",
			Chips:  2,
			Banks:  1,
			Rows:   rows,
			Cols:   cols,
			Seed:   subSeed(cfg.seed, "soak", i),
			WaitMs: 400,
			Coupling: coupling.Config{
				VulnerableRate:  0.05,
				StrongLeftFrac:  0.4,
				StrongRightFrac: 0.4,
				RetentionMinMs:  100,
				RetentionMaxMs:  300,
			},
			Faults: faults.Config{WeakCellRate: 0.01},
			Test: onlinetest.Config{
				Distances:    m.Distances(),
				ChunkBits:    m.ChunkBits(),
				RowsPerEpoch: 8,
				MaxRetries:   3,
			},
			MaxEpochs: epochs,
		}
	}
	return specs
}

func (w *soak) setup(tr *tracer) error {
	// A batched set-up (see sample) reaches here with the previous
	// daemon still open.
	if err := w.close(); err != nil {
		return err
	}
	w.specs = soakSpecs(w.cfg)
	w.reps++
	w.dir = filepath.Join(w.cfg.tmp, fmt.Sprintf("soak-%d", w.reps))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	d, err := fleet.NewDaemon(fleet.Config{
		Workers:         1,
		StateDir:        filepath.Join(w.dir, "state"),
		LogDir:          filepath.Join(w.dir, "log"),
		LogSegmentBytes: soakSegmentBytes,
	})
	if err != nil {
		return err
	}
	w.d = d
	enroll := func() error {
		for _, sp := range w.specs {
			if _, err := d.Enroll(sp, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if tr != nil {
		return tr.do("fleet.enroll", enroll)
	}
	return enroll()
}

func (w *soak) run(ctx context.Context) error {
	w.d.Start(ctx)
	w.d.Quiesce()
	return w.d.Drain()
}

func (w *soak) query() error {
	r, err := w.d.Analytics()
	w.analytics = r
	return err
}

// close shuts the current daemon and removes its directories.
func (w *soak) close() error {
	if w.d == nil {
		return nil
	}
	err := w.d.Close()
	w.d = nil
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// everSeenChecksum is the FNV checksum of a failure list, as
// core.FailureSet.Checksum computes it.
func everSeenChecksum(addrs []memctl.BitAddr) string {
	s := make(core.FailureSet, len(addrs))
	s.Add(addrs)
	return s.Checksum()
}

func hashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "error: " + err.Error()
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// check treats each enrolled module as one operation: it fails when
// the module ends anywhere but StatusDone, or when the log analytics
// disagree with its final snapshot.
func (w *soak) check(c *checker) {
	perLog := map[string]fleetlog.ModuleRollup{}
	if w.analytics != nil {
		for _, mr := range w.analytics.PerModule {
			perLog[mr.Module] = mr
		}
	}
	all := fnv.New64a()
	for _, m := range w.d.Registry().List() {
		st := m.Snapshot().Scheduler
		lg := perLog[m.ID()]
		sum := everSeenChecksum(st.EverSeen)
		c.expect(m.Status() == fleet.StatusDone && st.Epochs == m.Spec().MaxEpochs &&
			lg.Failures == len(st.EverSeen) && lg.Epochs == st.Epochs,
			"module %s: status %s err %v, %d/%d epochs, log %d failures over %d epochs vs %d ever seen",
			m.ID(), m.Status(), m.Err(), st.Epochs, m.Spec().MaxEpochs, lg.Failures, lg.Epochs, len(st.EverSeen))
		c.output("module."+m.ID()+".everseen", sum)
		fmt.Fprintf(all, "%s=%s\n", m.ID(), sum)
	}
	c.expect(w.d.Registry().Len() == len(w.specs), "fleet: %d modules enrolled, want %d", w.d.Registry().Len(), len(w.specs))
	rerr := w.d.Reconcile()
	c.expect(rerr == nil, "fleet: reconcile: %v", rerr)
	rollup := w.d.Rollup()
	c.expect(w.analytics != nil && w.analytics.Failures == rollup.Failures && w.analytics.Epochs == rollup.Epochs,
		"fleet: analytics disagree with the live rollup")
	c.output("fleet.everseen", fmt.Sprintf("%016x", all.Sum64()))
	c.output("fleet.rollup", hashJSON(rollup))
	c.outputInt("fleet.rollup.epochs", int64(rollup.Epochs))
	c.outputInt("fleet.rollup.failures", int64(rollup.Failures))
	if w.analytics != nil {
		c.output("fleet.analytics", hashJSON(w.analytics))
		c.outputInt("fleet.analytics.events", int64(w.analytics.Events))
	}
}

// traced runs the daemon path under spans, then drives every module
// stack by hand through the public calls Module.RunQuantum makes
// (RunEpochCtx, the log append, State, checkpoint.Capture), timing
// each call, and checks the hand-driven results against the daemon's.
func (w *soak) traced(ctx context.Context, tr *tracer, c *checker) (map[string]float64, error) {
	if err := w.setup(tr); err != nil {
		return nil, err
	}
	root := tr.begin("fleet.soak")
	if err := tr.do("fleet.run", func() error {
		w.d.Start(ctx)
		w.d.Quiesce()
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tr.do("fleet.drain", w.d.Drain); err != nil {
		return nil, err
	}
	tr.end(root)
	if err := tr.do("fleetlog.analyze", w.query); err != nil {
		return nil, err
	}
	w.check(c)
	epochs := w.d.Report().Counters[fleet.CounterEpochs]
	segs, err := filepath.Glob(filepath.Join(w.dir, "log", "*.seg"))
	if err != nil {
		return nil, err
	}
	want := map[string]string{}
	for _, m := range w.d.Registry().List() {
		want[m.ID()] = everSeenChecksum(m.Snapshot().Scheduler.EverSeen)
	}

	split, err := w.split(ctx, tr)
	if err != nil {
		return nil, err
	}
	for id, sum := range split.everSeen {
		c.expect(sum == want[id], "module %s: hand-driven epochs end at %s, the daemon at %s", id, sum, want[id])
	}
	c.expect(len(split.everSeen) == len(want), "hand-driven split covered %d modules, daemon %d", len(split.everSeen), len(want))

	return map[string]float64{
		"wall_s":                  tr.seconds("fleet.soak"),
		"fleet.enroll_s":          tr.seconds("fleet.enroll"),
		"fleet.run_s":             tr.seconds("fleet.run"),
		"fleet.drain_s":           tr.seconds("fleet.drain"),
		"fleet.epochs":            float64(epochs),
		"onlinetest.epoch_s":      tr.seconds("onlinetest.epoch"),
		"onlinetest.state_s":      tr.seconds("onlinetest.state"),
		"onlinetest.state_growth": split.growth,
		"onlinetest.state_addrs":  float64(split.stateAddrs),
		"checkpoint.capture_s":    tr.seconds("checkpoint.capture"),
		"fleetlog.append_s":       tr.seconds("fleetlog.append"),
		"fleetlog.analyze_s":      tr.seconds("fleetlog.analyze"),
		"fleetlog.events":         float64(w.analytics.Events),
		"fleetlog.segments":       float64(len(segs)),
	}, nil
}

type splitResult struct {
	everSeen   map[string]string
	growth     float64
	stateAddrs int64
	// firstNs and lastNs sum the State cost over each module's first
	// and last tenth of epochs.
	firstNs, lastNs int64
}

// split drives each module's stack by hand, module after module, into
// a log of its own.
func (w *soak) split(ctx context.Context, tr *tracer) (*splitResult, error) {
	lw, err := fleetlog.OpenWriter(filepath.Join(w.dir, "split-log"), fleetlog.WriterOptions{SegmentBytes: soakSegmentBytes})
	if err != nil {
		return nil, err
	}
	out := &splitResult{everSeen: map[string]string{}}
	root := tr.begin("fleet.split")
	for _, sp := range w.specs {
		if err := out.module(ctx, tr, lw, sp); err != nil {
			lw.Close()
			return nil, fmt.Errorf("module %s: %w", sp.ID, err)
		}
	}
	tr.end(root)
	if err := lw.Sync(); err != nil {
		return nil, err
	}
	if err := lw.Close(); err != nil {
		return nil, err
	}
	if out.firstNs > 0 {
		out.growth = float64(out.lastNs) / float64(out.firstNs)
	}
	return out, nil
}

// module builds one module stack the way the daemon does and runs its
// epochs, timing each call Module.RunQuantum makes.
func (out *splitResult) module(ctx context.Context, tr *tracer, lw *fleetlog.Writer, sp fleet.ModuleSpec) error {
	vendor, err := fleet.ParseVendor(sp.Vendor)
	if err != nil {
		return err
	}
	col := obs.NewCollector()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Name: sp.ID, Vendor: vendor, Chips: sp.Chips, Geometry: sp.Geometry(),
		Coupling: sp.Coupling, Faults: sp.Faults, Seed: sp.Seed, Recorder: col,
	})
	if err != nil {
		return err
	}
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{WaitMs: sp.WaitMs, Parallelism: 1, Recorder: col})
	if err != nil {
		return err
	}
	sched, err := onlinetest.New(host, sp.Test)
	if err != nil {
		return err
	}
	tenth := max(sp.MaxEpochs/10, 1)
	var st onlinetest.State
	for e := 0; e < sp.MaxEpochs; e++ {
		var res *onlinetest.EpochResult
		if err := tr.do("onlinetest.epoch", func() (err error) {
			res, err = sched.RunEpochCtx(ctx)
			return err
		}); err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
		if err := tr.do("fleetlog.append", func() error {
			return lw.Append(fleetlog.Event{Module: sp.ID, Epoch: sched.Epochs(), Fails: res.Observed})
		}); err != nil {
			return err
		}
		id := tr.begin("onlinetest.state")
		st = sched.State()
		tr.end(id)
		switch ns := tr.spans[id].End - tr.spans[id].Start; {
		case e < tenth:
			out.firstNs += ns
		case e >= sp.MaxEpochs-tenth:
			out.lastNs += ns
		}
		out.stateAddrs += int64(len(st.EverSeen) + len(st.SweepSeen))
		id = tr.begin("checkpoint.capture")
		checkpoint.Capture(mod, sp.Seed, st).HostAttempts = host.Attempts()
		tr.end(id)
	}
	out.everSeen[sp.ID] = everSeenChecksum(st.EverSeen)
	return nil
}
