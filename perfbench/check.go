package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// checker counts output checks as operations: each check is one
// attempted operation and fails the run when it does not hold.
type checker struct {
	attempted, failed int
	failures          []string
	// outputs are the canonical outputs of the run, compared against
	// the pins and across runs.
	outputs map[string]string
	info    map[string]float64
}

func newChecker() *checker {
	return &checker{outputs: map[string]string{}, info: map[string]float64{}}
}

// expect records one check.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// output records one canonical output.
func (c *checker) output(key, value string) { c.outputs[key] = value }

func (c *checker) outputInt(key string, v int64) { c.output(key, strconv.FormatInt(v, 10)) }

// outputFloat records a float rounded to the given decimal digits.
func (c *checker) outputFloat(key string, v float64, digits int) {
	c.output(key, strconv.FormatFloat(v, 'f', digits, 64))
}

// pins holds the expected outputs, keyed "<scale>/<seed>/<workload>",
// for the default seed and one held-out seed. Regenerate it with
// `python3 perfbench/run.py --update-pins` after a change that is
// meant to alter results.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]map[string]string, error) {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func pinKey(cfg config) string {
	return fmt.Sprintf("%s/%d/%s", cfg.scale, cfg.seed, cfg.workload)
}

// pin checks the run's outputs against the pinned values, when the
// seed has pins: every pinned key is one check.
func (c *checker) pin(cfg config) {
	pins, err := loadPins()
	if err != nil {
		c.expect(false, "%v", err)
		return
	}
	if want, ok := pins[pinKey(cfg)]; ok {
		c.comparePins(want)
	}
}

// comparePins checks every pinned value against the run's output.
func (c *checker) comparePins(want map[string]string) {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, ok := c.outputs[k]
		c.expect(ok && got == want[k], "pinned %s: got %q, want %q", k, got, want[k])
	}
}
