// Package refresh implements the refresh-rate policies evaluated in
// Section 8 of the PARBOR paper:
//
//   - Uniform: every row refreshed at the nominal 64 ms interval
//     (the DDR3 baseline).
//   - RAIDR: rows containing weak (low-retention) cells refreshed at
//     64 ms, all other rows at 256 ms (Liu et al., ISCA 2012). The
//     weak-row set is held in a Bloom filter, as in the original.
//   - DC-REF: the paper's contribution — a weak row is refreshed at
//     64 ms only while its data content matches the worst-case
//     pattern of one of its vulnerable cells (checked on writes,
//     using the neighbor locations PARBOR provides); weak rows whose
//     content is benign drop to 256 ms like everyone else.
//
// The paper's numbers follow directly from the row fractions: with
// 16.4% weak rows and on average 2.7% of rows matching the worst-case
// pattern, DC-REF issues 0.027 + 0.973/4 = 27.0% of the baseline's
// refreshes (-73%), which is 27.6% fewer than RAIDR's
// 0.164 + 0.836/4 = 37.3%.
package refresh

import (
	"fmt"

	"parbor/internal/bloom"
	"parbor/internal/rng"
)

// Kind selects a refresh policy.
type Kind int

// The three policies of Figure 16.
const (
	Uniform Kind = iota + 1
	RAIDR
	DCREF
)

// String returns the policy name used in experiment output.
func (k Kind) String() string {
	switch k {
	case Uniform:
		return "baseline-64ms"
	case RAIDR:
		return "RAIDR"
	case DCREF:
		return "DC-REF"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists the policies in evaluation order.
func Kinds() []Kind { return []Kind{Uniform, RAIDR, DCREF} }

// Config parameterizes a policy instance.
type Config struct {
	Kind Kind
	// TotalRows is the number of DRAM rows the policy manages.
	TotalRows int64
	// WeakRowFrac is the fraction of rows containing at least one
	// weak cell (the paper measures 16.4% on real chips).
	WeakRowFrac float64
	// InitialMatchProb is the probability that a weak row's resident
	// data matches the worst-case pattern when the system starts
	// (DC-REF only). The paper measures 16.5% of weak rows matching
	// on average over SPEC (2.7% of all rows).
	InitialMatchProb float64
	// Seed fixes the weak-row draw.
	Seed uint64
}

// Policy tracks which rows currently require the fast refresh
// interval and answers the aggregate queries the refresh engine
// needs.
//
// Policy is not safe for concurrent use.
type Policy struct {
	cfg      Config
	nWeak    int64
	nFast    int64          // rows currently on the fast interval
	override map[int64]bool // DC-REF: matched-state set by writes

	// weak is the controller's weak-row storage (RAIDR-style), built
	// from weakBits/weakHashes on the first IsWeak call: the refresh
	// engine needs only the row counts, so a policy nobody queries
	// row by row never pays for the filter.
	weak       *bloom.Filter
	weakBits   uint64
	weakHashes int

	// Per-row draws: each stream is src.Child(label), cached so a
	// draw is one At(row) instead of a label hash per row.
	// Child(l).At(n) is SplitN(l, n), so every draw is the one the
	// uncached SplitN form makes.
	weakSrc   rng.Source // "weak": ground-truth weak-row membership
	match0Src rng.Source // "match0": content state at system start
	writeSrc  rng.Source // "write": content drawn by each write
}

// New builds a policy and counts its weak and fast rows.
func New(cfg Config) (*Policy, error) {
	if cfg.TotalRows <= 0 {
		return nil, fmt.Errorf("refresh: TotalRows must be positive, got %d", cfg.TotalRows)
	}
	if cfg.WeakRowFrac < 0 || cfg.WeakRowFrac > 1 {
		return nil, fmt.Errorf("refresh: WeakRowFrac %v out of [0,1]", cfg.WeakRowFrac)
	}
	if cfg.InitialMatchProb < 0 || cfg.InitialMatchProb > 1 {
		return nil, fmt.Errorf("refresh: InitialMatchProb %v out of [0,1]", cfg.InitialMatchProb)
	}
	switch cfg.Kind {
	case Uniform, RAIDR, DCREF:
	default:
		return nil, fmt.Errorf("refresh: unknown policy kind %d", int(cfg.Kind))
	}
	src := rng.New(cfg.Seed)
	p := &Policy{
		cfg:       cfg,
		override:  make(map[int64]bool),
		weakSrc:   src.Child("weak"),
		match0Src: src.Child("match0"),
		writeSrc:  src.Child("write"),
	}
	if cfg.Kind == Uniform {
		p.nFast = cfg.TotalRows
		return p, nil
	}

	// Size the filter now so an impossible configuration fails here,
	// not on the first IsWeak call that builds it.
	expectedWeak := uint64(float64(cfg.TotalRows)*cfg.WeakRowFrac) + 1
	var err error
	p.weakBits, p.weakHashes, err = bloom.EstimateParams(expectedWeak, 0.001)
	if err != nil {
		return nil, err
	}
	for row := int64(0); row < cfg.TotalRows; row++ {
		if !p.isWeakDraw(row) {
			continue
		}
		p.nWeak++
		switch cfg.Kind {
		case RAIDR:
			p.nFast++
		case DCREF:
			if p.initialMatch(row) {
				p.nFast++
			}
		}
	}
	return p, nil
}

// isWeakDraw is the ground-truth weak-row membership (deterministic
// per seed). The controller's Bloom filter approximates this set.
func (p *Policy) isWeakDraw(row int64) bool {
	s := p.weakSrc.At(uint64(row))
	return s.Float64() < p.cfg.WeakRowFrac
}

// initialMatch is the primed content state of a weak row: whether the
// data resident at system start matches the worst-case pattern.
func (p *Policy) initialMatch(row int64) bool {
	s := p.match0Src.At(uint64(row))
	return s.Float64() < p.cfg.InitialMatchProb
}

// weakFilter returns the controller's weak-row Bloom filter, building
// it on first use from the same draws New counted.
func (p *Policy) weakFilter() *bloom.Filter {
	if p.weak != nil {
		return p.weak
	}
	f, err := bloom.New(p.weakBits, p.weakHashes)
	if err != nil {
		// EstimateParams validated these parameters in New.
		panic(fmt.Sprintf("refresh: weak-row filter: %v", err))
	}
	for row := int64(0); row < p.cfg.TotalRows; row++ {
		if p.isWeakDraw(row) {
			f.Add(uint64(row))
		}
	}
	p.weak = f
	return f
}

// Kind returns the policy kind.
func (p *Policy) Kind() Kind { return p.cfg.Kind }

// TotalRows returns the number of managed rows.
func (p *Policy) TotalRows() int64 { return p.cfg.TotalRows }

// WeakRows returns the number of rows classified weak.
func (p *Policy) WeakRows() int64 { return p.nWeak }

// FastRows returns the number of rows currently refreshed at the fast
// (64 ms) interval. The remaining rows use the slow (256 ms) one.
func (p *Policy) FastRows() int64 { return p.nFast }

// IsWeak reports whether the controller classifies the row as weak
// (including Bloom-filter false positives, as in real RAIDR).
func (p *Policy) IsWeak(row int64) bool {
	if p.cfg.Kind == Uniform {
		return false
	}
	return p.weakFilter().Contains(uint64(row))
}

// matched returns the current content-match state of a weak row.
func (p *Policy) matched(row int64) bool {
	if m, ok := p.override[row]; ok {
		return m
	}
	return p.initialMatch(row)
}

// OnWrite notifies the policy that new data was written to row. For
// DC-REF this is the content check of Section 8: with probability
// matchProb (a property of the writing application's data), the new
// content recreates the worst-case pattern at one of the row's
// vulnerable cells; otherwise the row drops to the slow interval.
// writeSeq must increase across writes to the same row so repeated
// writes re-draw the content.
func (p *Policy) OnWrite(row int64, matchProb float64, writeSeq uint64) {
	if p.cfg.Kind != DCREF {
		return
	}
	if !p.isWeakDraw(row) {
		return // content of strong rows never forces fast refresh
	}
	old := p.matched(row)
	w := p.writeSrc.At(uint64(row))
	draw := w.ChildN("seq", writeSeq)
	now := draw.Float64() < matchProb
	if old == now {
		return
	}
	p.override[row] = now
	if now {
		p.nFast++
	} else {
		p.nFast--
	}
}

// RowsDuePerTick returns the expected number of row refreshes the
// engine must perform in one tREFI slot, given slotsPerInterval tREFI
// slots per fast interval (8192 for DDR3) and slowRatio (4: 256 ms /
// 64 ms). Fast rows are refreshed every interval, slow rows every
// slowRatio intervals.
func (p *Policy) RowsDuePerTick(slotsPerInterval, slowRatio int) float64 {
	fast := float64(p.nFast)
	slow := float64(p.cfg.TotalRows - p.nFast)
	return fast/float64(slotsPerInterval) + slow/float64(slotsPerInterval*slowRatio)
}
