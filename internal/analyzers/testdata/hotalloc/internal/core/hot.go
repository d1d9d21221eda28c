// Package core is the hotalloc fixture: allocating constructs inside
// //parbor:hotpath functions versus their preallocated or cold-path
// counterparts.
package core

import "fmt"

// Host carries preallocated scratch, the sanctioned home for hot-path
// working memory.
type Host struct {
	scratch []int
}

// hotClosures builds a closure and maps on the hot path.
//
//parbor:hotpath
func hotClosures(rows []int) int {
	square := func(x int) int { return x * x } // want hotalloc `closure literal`
	flags := map[int]bool{}                    // want hotalloc `map literal`
	seen := make(map[int]int)                  // want hotalloc `make\(map\)`
	seen[0] = len(flags)
	return square(rows[0]) + seen[0]
}

// hotFormat formats on the hot path.
//
//parbor:hotpath
func hotFormat(row int) string {
	return fmt.Sprintf("row-%d", row) // want hotalloc `fmt.Sprintf`
}

// hotBox converts a concrete value to an interface on the hot path.
//
//parbor:hotpath
func hotBox(x int) any {
	return any(x) // want hotalloc `conversion to interface type`
}

// hotGrow appends in a loop to a slice declared without capacity.
//
//parbor:hotpath
func hotGrow(rows []int) []int {
	var out []int
	for _, r := range rows {
		out = append(out, r) // want hotalloc `declared without capacity`
	}
	return out
}

// hotPrealloc appends in loops to slices with pinned capacity: host
// scratch resliced to zero length, and make with an explicit cap.
//
//parbor:hotpath
func hotPrealloc(h *Host, rows []int) []int {
	out := h.scratch[:0]
	for _, r := range rows {
		out = append(out, r)
	}
	res := make([]int, 0, len(rows))
	for _, r := range out {
		res = append(res, r)
	}
	return res
}

// hotErr returns an error on the cold path of a hot function;
// fmt.Errorf is deliberately allowed there.
//
//parbor:hotpath
func hotErr(n int) error {
	if n < 0 {
		return fmt.Errorf("negative row count %d", n)
	}
	return nil
}

// coldReport is not a hot path: closures, maps, Sprintf, and growing
// appends are all fine.
func coldReport(rows []int) string {
	labels := map[int]string{}
	var parts []string
	for _, r := range rows {
		labels[r] = fmt.Sprintf("row-%d", r)
		parts = append(parts, labels[r])
	}
	join := func(sep string) string {
		s := ""
		for i, p := range parts {
			if i > 0 {
				s += sep
			}
			s += p
		}
		return s
	}
	return join(",")
}

// event is a small value type, like the simulator's queue entries.
type event struct {
	at float64
	id int
}

// sink takes its argument as an interface, as container/heap.Push
// does.
func sink(x any) {}

// sinkAll is the variadic shape.
func sinkAll(xs ...any) {}

// hotImplicitBox passes concrete values to interface parameters.
//
//parbor:hotpath
func hotImplicitBox(ev event, row int) {
	sink(ev)          // want hotalloc `argument of type event passed as interface any`
	sinkAll(&ev, row) // want hotalloc `argument of type int passed as interface any`
}

// hotNoBox passes values that convert without allocating: pointers,
// constants, nil, values already in an interface, and a forwarded
// variadic slice.
//
//parbor:hotpath
func hotNoBox(ev *event, v any, xs []any) {
	sink(ev)
	sink(3)
	sink(nil)
	sink(v)
	sinkAll(xs...)
}
